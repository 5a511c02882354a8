package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Memory-mapped trace files
//
// Mapped is the one binary trace decoder. MapFile maps a trace file
// (columnar or legacy varint, sniffed from the magic) and decodes
// records straight out of the mapped pages: no read syscalls past the
// initial stat/map, no buffer copies of block payloads, and — on the
// batch path — no allocations after the constructor. DecodeBytes runs
// the same decoder over an in-memory stream. Branch values are copies,
// never aliases of the mapping, so decoded records outlive Close; the
// reader itself must not be used after Close.

// mappedKind names the codec a Mapped file carries.
type mappedKind uint8

const (
	mappedColumnar mappedKind = iota
	mappedVarint
)

// Mapped is a trace file decoded in place from a memory mapping (or,
// on platforms without mmap, from one whole-file read). It implements
// Source and BatchSource, supports Reset for replay, and must be
// Closed to release the mapping.
type Mapped struct {
	data  []byte
	unmap func([]byte) error
	kind  mappedKind

	off    int
	lastPC uint64 // legacy varint delta chain

	dict               []uint64
	kinds              []uint64
	stage              []Branch // columnar staging for Next and short NextBatch calls
	stagePos, stageLen int
}

// MapFile opens and memory-maps a trace file in the columnar or the
// legacy varint format. The file descriptor is released before
// returning (the mapping survives it); Close unmaps.
func MapFile(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	data, unmap, err := mapFile(f, fi.Size())
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("trace: mapping %s: %w", path, err)
	}
	m, err := newMapped(data, unmap)
	if err != nil {
		if unmap != nil {
			unmap(data)
		}
		return nil, err
	}
	return m, nil
}

// DecodeBytes decodes a complete in-memory trace stream in the columnar
// or the legacy varint format, sniffed from the magic.
func DecodeBytes(data []byte) ([]Branch, error) {
	m, err := newMapped(data, nil)
	if err != nil {
		return nil, err
	}
	var out []Branch
	buf := make([]Branch, ColumnarBlockSize)
	for {
		n, err := m.NextBatch(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// newMapped validates the file header and builds the decoder state.
func newMapped(data []byte, unmap func([]byte) error) (*Mapped, error) {
	if len(data) < 16 {
		return nil, fmt.Errorf("trace: mapped file too short for a header (%d bytes)", len(data))
	}
	m := &Mapped{data: data, unmap: unmap, off: 16}
	switch [4]byte(data[:4]) {
	case magicColumnar:
		m.kind = mappedColumnar
		if data[4] != columnarVersion {
			return nil, fmt.Errorf("trace: unsupported columnar version %d", data[4])
		}
		m.dict = make([]uint64, ColumnarBlockSize)
		m.kinds = make([]uint64, ColumnarBlockSize/64)
	case magic:
		m.kind = mappedVarint
		if data[4] != formatVersion {
			return nil, fmt.Errorf("trace: unsupported version %d", data[4])
		}
	default:
		return nil, fmt.Errorf("trace: bad magic %q", data[:4])
	}
	return m, nil
}

// Reset rewinds to the first record without remapping.
func (m *Mapped) Reset() {
	m.off = 16
	m.lastPC = 0
	m.stagePos, m.stageLen = 0, 0
}

// Close releases the mapping. The Mapped must not be used afterwards;
// Branch values already decoded remain valid (they are copies).
func (m *Mapped) Close() error {
	data := m.data
	m.data = nil
	if m.unmap != nil && data != nil {
		return m.unmap(data)
	}
	return nil
}

// readBlock decodes the next columnar block into dst (len(dst) >= the
// block's count), verifying the header and checksum against the mapped
// bytes in place.
func (m *Mapped) readBlock(dst []Branch) (int, error) {
	if m.off == len(m.data) {
		return 0, io.EOF
	}
	if m.off+columnarBlockHeaderSize > len(m.data) {
		return 0, corruptf("truncated block header (%d bytes)", len(m.data)-m.off)
	}
	h, err := parseColumnarBlockHeader(m.data[m.off:])
	if err != nil {
		return 0, err
	}
	start := m.off + columnarBlockHeaderSize
	if start+h.plen > len(m.data) {
		return 0, corruptf("truncated block payload (%d of %d bytes)", len(m.data)-start, h.plen)
	}
	payload := m.data[start : start+h.plen]
	if crc := crc32.Checksum(payload, castagnoli); crc != h.crc {
		return 0, corruptf("block checksum mismatch (stored %08x, computed %08x)", h.crc, crc)
	}
	if err := decodeColumnarBlock(payload, h, dst, m.dict, m.kinds); err != nil {
		return 0, err
	}
	m.off = start + h.plen
	return h.count, nil
}

// NextBatch implements BatchSource, decoding straight from the mapped
// pages into dst. On the columnar path each call delivers at most one
// block and a dst of ColumnarBlockSize records never allocates.
func (m *Mapped) NextBatch(dst []Branch) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if m.kind == mappedVarint {
		n := 0
		for n < len(dst) {
			if m.off == len(m.data) {
				if n > 0 {
					return n, nil
				}
				return 0, io.EOF
			}
			v, sz := binary.Uvarint(m.data[m.off:])
			if sz == 0 {
				return n, corruptf("record varint truncated at byte %d", m.off)
			}
			if sz < 0 {
				return n, corruptf("record varint at byte %d overflows 64 bits", m.off)
			}
			m.off += sz
			pc := uint64(int64(m.lastPC) + unzigzag(v>>2))
			m.lastPC = pc
			dst[n] = Branch{PC: pc, Taken: v&2 != 0, Kind: Kind(v & 1)}
			n++
		}
		return n, nil
	}
	if m.stagePos < m.stageLen {
		n := copy(dst, m.stage[m.stagePos:m.stageLen])
		m.stagePos += n
		return n, nil
	}
	if len(dst) >= ColumnarBlockSize {
		return m.readBlock(dst)
	}
	if err := m.restage(); err != nil {
		return 0, err
	}
	n := copy(dst, m.stage[:m.stageLen])
	m.stagePos = n
	return n, nil
}

// restage decodes the next block into the staging buffer.
func (m *Mapped) restage() error {
	if m.stage == nil {
		m.stage = make([]Branch, ColumnarBlockSize)
	}
	n, err := m.readBlock(m.stage)
	if err != nil {
		return err
	}
	m.stagePos, m.stageLen = 0, n
	return nil
}

// Next implements Source.
func (m *Mapped) Next() (Branch, error) {
	if m.kind == mappedVarint {
		var one [1]Branch
		if _, err := m.NextBatch(one[:]); err != nil {
			return Branch{}, err
		}
		return one[0], nil
	}
	if m.stagePos >= m.stageLen {
		if err := m.restage(); err != nil {
			return Branch{}, err
		}
	}
	b := m.stage[m.stagePos]
	m.stagePos++
	return b, nil
}
