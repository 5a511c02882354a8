package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"slices"
	"sync"
)

// Block-columnar format
//
// The only binary format the package writes. It trades a little
// writer effort for a straight-line block decoder: records are grouped
// into fixed-size blocks and each block stores its three fields as
// separate streams, each compressed by the structure branch traces
// actually have.
//
//	file:  header:  magic "GSKC" | version u8 | reserved [11]byte
//	       block*
//	block: header (16 bytes):
//	         count   u32 LE   records in the block (1..ColumnarBlockSize)
//	         length  u32 LE   payload bytes
//	         crc32c  u32 LE   CRC-32 (Castagnoli) of the payload
//	         mode    u8       0 = dictionary PC stream, 1 = raw varint
//	         zero    [3]byte  must be zero
//	       payload: PC stream | direction bitvector | kind stream
//
// PC stream, mode 0 (dictionary): the block's distinct PCs sorted
// ascending as a varint head plus varint deltas, then one width byte,
// then count bit-packed dictionary indices (width bits each, LSB
// first). Traces revisit a small static branch set, so a 4096-record
// block rarely holds more than a few hundred distinct PCs and indices
// pack into ~8-10 bits. Mode 1 (raw escape) stores the records'
// zig-zag PC deltas as plain varints, chained from zero at the block
// start. The writer costs both encodings but takes the raw escape only
// when it is at least a quarter smaller: the dictionary's unpack is a
// constant-width shift-and-mask per record while raw pays a
// data-dependent varint decode, so within that margin the dictionary
// wins on decode cost at near-equal density. Adversarial blocks (mostly
// distinct, closely spaced PCs, where the dictionary would nearly
// double the block) still degrade to roughly the legacy varint
// format's density, never worse.
//
// Direction bitvector: ceil(count/64) little-endian u64 words, bit
// (i mod 64) of word (i div 64) holding record i's Taken.
//
// Kind stream: one flag byte, then either alternating varint run
// lengths starting with a Conditional run (flag 0; possibly zero when
// the block opens unconditional), stopping once the runs cover the
// block, or a raw bitvector shaped like the direction bitvector
// (flag 1). Kinds are near-constant in real traces, so the runs are
// typically a handful of bytes; the bitvector is the escape for
// densely interleaved blocks, where per-run varints would cost more
// bytes than the bitvector and far more decode time.
//
// The writer makes one pass over a block's records: each PC is interned
// through a reused open-addressed PC table (cleared per block by a
// generation stamp, not by zeroing) that hands out dense ids in order
// of first appearance, while the same pass packs the direction and kind
// bitvectors and costs the raw escape. Only the distinct PCs are then
// sorted into the dictionary, and each packed index is one lookup of
// its record's dense id in a rank table. The bytes are those of the
// straightforward sort-and-binary-search writer, which the tests keep
// as a reference encoder (FuzzColumnarEncode).
//
// Every block is independently decodable: the dictionary is absolute,
// the mode-1 delta chain restarts at zero, and the count/length header
// lets a reader skip or parallelise blocks without decoding them.
// Corruption anywhere — truncation, a flipped payload byte, a forged
// header — surfaces as an error wrapping ErrCorrupt, never as a wrong
// trace.

// ColumnarBlockSize is the maximum records per block.
const ColumnarBlockSize = 4096

// columnarVersion is the columnar format version byte.
const columnarVersion = 1

// columnarBlockHeaderSize is the fixed per-block header width.
const columnarBlockHeaderSize = 16

// maxColumnarPayload bounds a block payload. The worst honest case
// (4096 ten-byte varint deltas plus packed indices, directions and
// kinds) stays under 56 KiB; anything larger is a forged header.
const maxColumnarPayload = 1 << 16

// Kind stream flags: the byte that opens the kind stream, selecting
// how the per-record kinds are encoded.
const (
	kindStreamRuns = 0 // alternating varint run-lengths, Conditional first
	kindStreamBits = 1 // raw bitvector, bit (i mod 64) of word (i div 64)
)

// magicColumnar identifies the columnar container.
var magicColumnar = [4]byte{'G', 'S', 'K', 'C'}

// IsColumnar reports whether data opens with the columnar file header
// (magic and version); it does not validate the blocks.
func IsColumnar(data []byte) bool {
	return len(data) >= 16 && [4]byte(data[:4]) == magicColumnar && data[4] == columnarVersion
}

// ErrCorrupt marks undecodable trace data: in the columnar format a
// truncated block, a checksum mismatch, a forged header or an
// inconsistent stream; in the legacy varint format a record cut inside
// its varint or a varint overflowing 64 bits. Every decode failure past
// the file header wraps it, so callers can treat all corruption
// uniformly with errors.Is.
var ErrCorrupt = errors.New("trace: corrupt trace data")

// castagnoli is the CRC-32C table shared by the writer and Mapped.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// uvarintLen returns the encoded width of v.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// ColumnarWriter encodes branches into the block-columnar format.
type ColumnarWriter struct {
	w   *bufio.Writer
	buf []Branch // pending records of the open block
	enc *columnarEncoder

	// tamperWidth plants the verify selftest's bitpack-width
	// off-by-one: dictionary indices are packed one bit narrower than
	// the stored dictionary needs, silently aliasing high entries onto
	// low ones. See TamperColumnarBitpackWidth.
	tamperWidth bool
}

// NewColumnarWriter returns a ColumnarWriter and emits the file header.
func NewColumnarWriter(w io.Writer) (*ColumnarWriter, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(appendColumnarHeader(nil)); err != nil {
		return nil, fmt.Errorf("trace: writing columnar header: %w", err)
	}
	return &ColumnarWriter{
		w:   bw,
		buf: make([]Branch, 0, ColumnarBlockSize),
		enc: new(columnarEncoder),
	}, nil
}

// appendColumnarHeader appends the 16-byte file header to dst.
func appendColumnarHeader(dst []byte) []byte {
	var hdr [16]byte
	copy(hdr[:4], magicColumnar[:])
	hdr[4] = columnarVersion
	return append(dst, hdr[:]...)
}

// TamperColumnarBitpackWidth plants a bitpack-width off-by-one fault
// into the writer: dictionary indices are packed with one bit less
// than the dictionary requires, so high dictionary entries silently
// alias onto low ones while every block checksum stays valid. It
// exists solely for the verify selftest, which must prove the codec
// differential arm catches exactly this class of silent fault.
func TamperColumnarBitpackWidth(w *ColumnarWriter) { w.tamperWidth = true }

// Write buffers one record, flushing a block when full.
func (w *ColumnarWriter) Write(b Branch) error {
	if b.Kind > Unconditional {
		return fmt.Errorf("trace: invalid kind %d", b.Kind)
	}
	w.buf = append(w.buf, b)
	if len(w.buf) == ColumnarBlockSize {
		return w.flushBlock()
	}
	return nil
}

// Flush writes any partial final block and flushes the underlying
// writer. The writer remains usable; a later Write opens a new block.
func (w *ColumnarWriter) Flush() error {
	if len(w.buf) > 0 {
		if err := w.flushBlock(); err != nil {
			return err
		}
	}
	return w.w.Flush()
}

// flushBlock encodes and emits the pending records as one block.
func (w *ColumnarWriter) flushBlock() error {
	blk, err := w.enc.appendBlock(w.enc.out[:0], w.buf, w.tamperWidth)
	w.enc.out = blk
	if err != nil {
		return err
	}
	if _, err := w.w.Write(blk); err != nil {
		return fmt.Errorf("trace: writing block: %w", err)
	}
	w.buf = w.buf[:0]
	return nil
}

// pcTableBits sizes the encoder's open-addressed PC table: 2^13 slots
// keep a block of ColumnarBlockSize distinct PCs at most half full.
const pcTableBits = 13

// pcSlot is one entry of the encoder's PC table. It is live only while
// gen equals the encoder's current generation, so the table is cleared
// per block by bumping the generation instead of zeroing it.
type pcSlot struct {
	pc  uint64
	gen uint32
	id  uint16 // dense id: order of first appearance in the block
}

// columnarEncoder is the block writer's scratch, reused across blocks:
// one pass over the records interns each PC through the PC table
// (giving every record a dense id), builds the direction and kind
// bitvectors and costs the raw escape; then only the distinct PCs are
// sorted, and each record's dictionary index is one lookup of its
// dense id's rank. It carries no fault-injection state, so pooled
// encoders are always clean.
type columnarEncoder struct {
	table [1 << pcTableBits]pcSlot
	gen   uint32
	n     int                       // distinct PCs interned this block
	ids   [ColumnarBlockSize]uint16 // per record: dense id of its PC
	rank  [ColumnarBlockSize]uint16 // per dense id: dictionary index
	dict  [ColumnarBlockSize]uint64 // distinct PCs, sorted once interned
	dirs  [ColumnarBlockSize / 64]uint64
	kinds [ColumnarBlockSize / 64]uint64
	runs  [ColumnarBlockSize + 1]uint16 // kind run lengths
	out   []byte                        // encoded output scratch
}

// encoderPool recycles EncodeColumnar's scratch. Only EncodeColumnar
// draws from it, and it never tampers, so no pooled encoder is ever
// used for a faulted stream.
var encoderPool = sync.Pool{New: func() any { return new(columnarEncoder) }}

// maxPooledOut caps the output scratch a pooled encoder keeps, so one
// large trace does not pin its encoding in the pool.
const maxPooledOut = 1 << 20

// b2u is 1 for true and 0 for false, compiled without a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// intern returns pc's dense id in the current block, assigning the
// next one (and recording pc in dict) on first sight.
func (e *columnarEncoder) intern(pc uint64) uint16 {
	const mask = 1<<pcTableBits - 1
	s := uint32(pc*fib>>(64-pcTableBits)) & mask
	for {
		sl := &e.table[s]
		if sl.gen != e.gen {
			id := uint16(e.n)
			*sl = pcSlot{pc: pc, gen: e.gen, id: id}
			e.dict[id] = pc
			e.n++
			return id
		}
		if sl.pc == pc {
			return sl.id
		}
		s = (s + 1) & mask
	}
}

// appendBlock appends recs (1..ColumnarBlockSize records) to dst as
// one block, header and payload.
func (e *columnarEncoder) appendBlock(dst []byte, recs []Branch, tamperWidth bool) ([]byte, error) {
	count := len(recs)
	if e.gen++; e.gen == 0 {
		clear(e.table[:])
		e.gen = 1
	}
	e.n = 0

	// One pass: intern PCs, pack directions and kinds, cost the raw
	// escape's zig-zag deltas.
	rawCost := 0
	prev := uint64(0)
	var kindOr Kind
	for w0 := 0; w0 < count; w0 += 64 {
		grp := recs[w0:min(w0+64, count)]
		ids := e.ids[w0 : w0+len(grp)]
		var dw, kw uint64
		for j := range grp {
			b := &grp[j]
			rawCost += uvarintLen(zigzag(int64(b.PC) - int64(prev)))
			prev = b.PC
			ids[j] = e.intern(b.PC)
			dw |= b2u(b.Taken) << j
			kw |= uint64(b.Kind&1) << j
			kindOr |= b.Kind
		}
		e.dirs[w0>>6], e.kinds[w0>>6] = dw, kw
	}
	if kindOr > Unconditional {
		for i := range recs {
			if recs[i].Kind > Unconditional {
				return dst, fmt.Errorf("trace: invalid kind %d", recs[i].Kind)
			}
		}
	}

	// Dictionary: sort only the distinct PCs, then map each dense id to
	// its rank through the table.
	dictCount := e.n
	dict := e.dict[:dictCount]
	slices.Sort(dict)
	for r, pc := range dict {
		e.rank[e.intern(pc)] = uint16(r)
	}
	width := bits.Len(uint(dictCount - 1))

	// Cost both PC encodings. The raw escape must be at least a quarter
	// smaller to displace the dictionary's straight-line decode.
	dictCost := uvarintLen(uint64(dictCount)) + uvarintLen(dict[0])
	for i := 1; i < dictCount; i++ {
		dictCost += uvarintLen(dict[i] - dict[i-1])
	}
	dictCost += 1 + (count*width+7)/8

	hdrAt := len(dst)
	dst = append(dst, make([]byte, columnarBlockHeaderSize)...)
	mode := byte(0)
	if rawCost*4 < dictCost*3 {
		mode = 1
		prev = 0
		for i := range recs {
			dst = binary.AppendUvarint(dst, zigzag(int64(recs[i].PC)-int64(prev)))
			prev = recs[i].PC
		}
	} else {
		dst = binary.AppendUvarint(dst, uint64(dictCount))
		dst = binary.AppendUvarint(dst, dict[0])
		for i := 1; i < dictCount; i++ {
			dst = binary.AppendUvarint(dst, dict[i]-dict[i-1])
		}
		packWidth := width
		if tamperWidth && packWidth > 0 {
			packWidth--
		}
		dst = append(dst, byte(packWidth))
		dst = e.appendPacked(dst, count, packWidth)
	}

	// Direction bitvector.
	words := (count + 63) / 64
	for _, w := range e.dirs[:words] {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}

	// Kind stream: run-lengths when kinds are near-constant, a raw
	// bitvector when the block interleaves kinds so densely that the
	// runs would cost more than the bitvector — the same decode-cost
	// escape hatch the PC stream has, since the bitvector decodes as a
	// straight word copy while dense runs pay a varint each.
	runs := e.kindRuns(count)
	runCost := 0
	for _, r := range runs {
		runCost += uvarintLen(uint64(r))
	}
	if runCost <= words*8 {
		dst = append(dst, kindStreamRuns)
		for _, r := range runs {
			dst = binary.AppendUvarint(dst, uint64(r))
		}
	} else {
		dst = append(dst, kindStreamBits)
		for _, w := range e.kinds[:words] {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
	}

	hdr := dst[hdrAt : hdrAt+columnarBlockHeaderSize]
	payload := dst[hdrAt+columnarBlockHeaderSize:]
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(count))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.Checksum(payload, castagnoli))
	hdr[12] = mode
	return dst, nil
}

// appendPacked appends the block's count dictionary indices (each
// record's dense id mapped to its rank), width bits each, LSB first.
// Indices are masked to width, so a tampered (narrower) width aliases
// high entries onto low ones.
func (e *columnarEncoder) appendPacked(dst []byte, count, width int) []byte {
	packedLen := (count*width + 7) / 8
	dst = slices.Grow(dst, packedLen)
	out := dst[len(dst) : len(dst)+packedLen]
	mask := uint64(1)<<width - 1
	var acc uint64
	accBits, o := 0, 0
	for _, id := range e.ids[:count] {
		acc |= (uint64(e.rank[id]) & mask) << accBits
		// accBits stays below 32+12, so acc never overflows.
		if accBits += width; accBits >= 32 {
			binary.LittleEndian.PutUint32(out[o:], uint32(acc))
			o += 4
			acc >>= 32
			accBits -= 32
		}
	}
	for ; accBits > 0; accBits -= 8 {
		out[o] = byte(acc)
		o++
		acc >>= 8
	}
	return dst[:len(dst)+packedLen]
}

// kindRuns returns the block's alternating kind run lengths, starting
// with a Conditional run (zero when the block opens unconditional):
// each set bit of kinds XOR (kinds shifted up one record) is a run
// boundary.
func (e *columnarEncoder) kindRuns(count int) []uint16 {
	runs := e.runs[:0]
	start := 0
	carry := uint64(0) // the previous record's kind; Conditional before the block
	for w, k := range e.kinds[:(count+63)/64] {
		t := k ^ (k<<1 | carry)
		carry = k >> 63
		if rem := count - w*64; rem < 64 {
			t &= 1<<rem - 1
		}
		for ; t != 0; t &= t - 1 {
			at := w*64 + bits.TrailingZeros64(t)
			runs = append(runs, uint16(at-start))
			start = at
		}
	}
	return append(runs, uint16(count-start))
}

// columnarBlockHeader is one parsed block header.
type columnarBlockHeader struct {
	count int
	plen  int
	crc   uint32
	mode  byte
}

// parseColumnarBlockHeader validates a block header's invariants; the
// payload checksum is verified separately once the payload is read.
func parseColumnarBlockHeader(hdr []byte) (columnarBlockHeader, error) {
	h := columnarBlockHeader{
		count: int(binary.LittleEndian.Uint32(hdr[0:4])),
		plen:  int(binary.LittleEndian.Uint32(hdr[4:8])),
		crc:   binary.LittleEndian.Uint32(hdr[8:12]),
		mode:  hdr[12],
	}
	switch {
	case h.count < 1 || h.count > ColumnarBlockSize:
		return h, corruptf("block count %d out of range [1,%d]", h.count, ColumnarBlockSize)
	case h.plen < 1 || h.plen > maxColumnarPayload:
		return h, corruptf("block payload length %d out of range [1,%d]", h.plen, maxColumnarPayload)
	case h.mode > 1:
		return h, corruptf("unknown PC stream mode %d", h.mode)
	case hdr[13] != 0 || hdr[14] != 0 || hdr[15] != 0:
		return h, corruptf("nonzero reserved block header bytes")
	}
	return h, nil
}

// decodeColumnarBlock expands one verified payload into dst[:count].
// dict is caller scratch with length ColumnarBlockSize; kinds is
// caller scratch with length ColumnarBlockSize/64. The checksum must
// already have been verified; this validates everything the checksum
// cannot (stream lengths, index bounds, run totals).
//
// The dictionary mode decodes in a single fused pass: its PC stream
// width is known from the header fields alone, so the direction and
// kind stream offsets are computable up front and every record is
// assembled and stored once (one 64-bit load + shift/mask for the
// index, one bit test for the direction, one compare for the kind
// run). That straight-line loop is why the writer prefers this mode.
// The raw escape's varint chain hides the stream length, so it decodes
// in phases like the varint codec.
func decodeColumnarBlock(payload []byte, h columnarBlockHeader, dst []Branch, dict []uint64, kinds []uint64) error {
	count := h.count
	dst = dst[:count]
	pos := 0
	uvarint := func() (uint64, error) {
		v, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return 0, corruptf("varint overruns block payload")
		}
		pos += n
		return v, nil
	}

	if h.mode == 1 {
		// Raw escape: inlined uvarint loop (skipping the closure keeps
		// it at the varint codec's decode cost rather than above it),
		// then directions and kinds as separate passes.
		prev := uint64(0)
		for i := 0; i < count; i++ {
			if pos < len(payload) && payload[pos] < 0x80 {
				prev = uint64(int64(prev) + unzigzag(uint64(payload[pos])))
				pos++
				dst[i].PC = prev
				continue
			}
			d, n := binary.Uvarint(payload[pos:])
			if n <= 0 {
				return corruptf("varint overruns block payload")
			}
			pos += n
			prev = uint64(int64(prev) + unzigzag(d))
			dst[i].PC = prev
		}

		words := (count + 63) / 64
		if pos+words*8 > len(payload) {
			return corruptf("direction bitvector overruns block payload")
		}
		dirs := payload[pos:]
		for i := 0; i < count; i++ {
			dst[i].Taken = dirs[i>>3]>>(i&7)&1 != 0
		}
		pos += words * 8

		pos, err := decodeKinds(payload, pos, count, kinds)
		if err != nil {
			return err
		}
		for i := 0; i < count; i++ {
			dst[i].Kind = Kind(kinds[i>>6] >> (i & 63) & 1)
		}
		if pos != len(payload) {
			return corruptf("%d trailing bytes after block streams", len(payload)-pos)
		}
		return nil
	}

	// Dictionary mode.
	dc, err := uvarint()
	if err != nil {
		return err
	}
	if dc < 1 || dc > uint64(count) {
		return corruptf("dictionary size %d out of range [1,%d]", dc, count)
	}
	dictCount := int(dc)
	dict = dict[:ColumnarBlockSize]
	prev := uint64(0)
	for i := 0; i < dictCount; i++ {
		// One-byte fast path: ascending dictionary deltas are usually
		// a handful of instruction words apart.
		var d uint64
		if pos < len(payload) && payload[pos] < 0x80 {
			d = uint64(payload[pos])
			pos++
		} else {
			var n int
			d, n = binary.Uvarint(payload[pos:])
			if n <= 0 {
				return corruptf("varint overruns block payload")
			}
			pos += n
		}
		prev += d
		dict[i] = prev
	}
	if pos >= len(payload) {
		return corruptf("missing index width byte")
	}
	width := int(payload[pos])
	pos++
	// dictCount <= ColumnarBlockSize bounds the index width at 12 bits,
	// which in turn lets the hot loop index the dictionary scratch as a
	// fixed-size array with a masked (always in-bounds) subscript.
	if width > 12 {
		return corruptf("index width %d out of range [0,12]", width)
	}

	// Fixed-width streams: packed indices, then the direction words,
	// then the kind runs filling the remainder.
	packedLen := (count*width + 7) / 8
	words := (count + 63) / 64
	if pos+packedLen+words*8 > len(payload) {
		return corruptf("packed indices overrun block payload")
	}
	// ext extends the packed-index window 8 bytes past its end — into
	// the direction bitvector, which is always >= 8 bytes — so the hot
	// loop's unaligned 64-bit load never needs a tail fallback: the last
	// index starts at byte packedLen-1 at the latest, and ext always has
	// 8 readable bytes from there.
	ext := payload[pos : pos+packedLen+8]
	dirs := payload[pos+packedLen : pos+packedLen+words*8]
	pos += packedLen + words*8

	// Expand the kind stream into the per-record bitvector so the
	// kernel reads kinds exactly like directions — one bit test — with
	// no varint decoding, and with it no function calls that would
	// force the register allocator to spill the loop state every
	// iteration.
	pos, err = decodeKinds(payload, pos, count, kinds)
	if err != nil {
		return err
	}
	if pos != len(payload) {
		return corruptf("%d trailing bytes after block streams", len(payload)-pos)
	}

	// Index validation is deferred: the kernel reports the largest index
	// it saw and that is range-checked once here (the caller discards
	// dst on error, so writing garbage PCs first is harmless), keeping
	// the hot loop free of data-dependent branches.
	maxIdx := unpackColumnarRecords(dst, ext, dirs, (*[ColumnarBlockSize]uint64)(dict), width, kinds)
	if int(maxIdx) >= dictCount {
		return corruptf("dictionary index %d out of range [0,%d)", maxIdx, dictCount)
	}
	return nil
}

// decodeKinds expands the kind stream starting at payload[pos] into the
// per-record bitvector kinds (bit i%64 of word i/64 is record i's kind)
// and returns the stream's end offset. The bitvector escape is a plain
// word copy; the run-length form is expanded word-parallel — each run
// boundary toggles one bit, and a prefix-XOR scan turns toggles into
// fills — so neither form costs varint decoding in the record loop.
func decodeKinds(payload []byte, pos, count int, kinds []uint64) (int, error) {
	if pos >= len(payload) {
		return 0, corruptf("missing kind stream flag byte")
	}
	flag := payload[pos]
	pos++
	words := (count + 63) / 64
	if flag == kindStreamBits {
		if pos+words*8 > len(payload) {
			return 0, corruptf("kind bitvector overruns block payload")
		}
		for w := 0; w < words; w++ {
			kinds[w] = binary.LittleEndian.Uint64(payload[pos+w*8:])
		}
		return pos + words*8, nil
	}
	if flag != kindStreamRuns {
		return 0, corruptf("kind stream flag %d out of range [0,1]", flag)
	}
	for w := 0; w < words; w++ {
		kinds[w] = 0
	}
	covered := 0
	first := true
	for covered < count {
		// One-byte fast path: interleaved-kind traces make runs short,
		// so most lengths are a single varint byte.
		var r uint64
		if pos < len(payload) && payload[pos] < 0x80 {
			r = uint64(payload[pos])
			pos++
		} else {
			var n int
			r, n = binary.Uvarint(payload[pos:])
			if n <= 0 {
				return 0, corruptf("varint overruns block payload")
			}
			pos += n
		}
		if r == 0 && !first {
			return 0, corruptf("zero-length interior kind run")
		}
		if r > uint64(count-covered) {
			return 0, corruptf("kind runs cover %d of %d records", covered+int(r), count)
		}
		covered += int(r)
		first = false
		if covered < count {
			// The kind flips at this boundary for all later records.
			kinds[covered>>6] ^= 1 << (covered & 63)
		}
	}
	// Prefix-XOR scan: bit j becomes the parity of toggles at or below
	// j, i.e. the record's kind. A leading zero-length run toggles bit
	// 0, which the scan propagates like any other.
	carry := uint64(0)
	for w := 0; w < words; w++ {
		x := kinds[w]
		x ^= x << 1
		x ^= x << 2
		x ^= x << 4
		x ^= x << 8
		x ^= x << 16
		x ^= x << 32
		x ^= carry
		kinds[w] = x
		carry = uint64(int64(x) >> 63)
	}
	return pos, nil
}

// EncodeColumnar renders branches as one in-memory columnar stream,
// byte-identical to a ColumnarWriter fed the same records. It encodes
// blocks straight from branches with pooled scratch; the returned
// slice is freshly allocated at its exact length.
func EncodeColumnar(branches []Branch) ([]byte, error) {
	e := encoderPool.Get().(*columnarEncoder)
	out := appendColumnarHeader(e.out[:0])
	var err error
	for rest := branches; len(rest) > 0 && err == nil; {
		n := min(len(rest), ColumnarBlockSize)
		out, err = e.appendBlock(out, rest[:n], false)
		rest = rest[n:]
	}
	var enc []byte
	if err == nil {
		enc = bytes.Clone(out)
	}
	if cap(out) > maxPooledOut {
		out = nil
	}
	e.out = out[:0]
	encoderPool.Put(e)
	return enc, err
}
