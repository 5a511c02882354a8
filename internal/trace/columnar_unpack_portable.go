package trace

import "encoding/binary"

// unpackColumnarRecordsPortable is the portable variant of the
// dictionary-mode hot kernel (see columnar_unpack_fast.go for the
// layout contract): identical semantics, but every load goes through
// bounds-checked indexing and binary.LittleEndian, so it is correct on
// big-endian targets and machines without cheap unaligned loads. It is
// compiled on every platform, so FuzzColumnarUnpack can diff it
// against the fast variant in one binary.
func unpackColumnarRecordsPortable(dst []Branch, ext, dirs []byte, dict *[ColumnarBlockSize]uint64, width int, kinds []uint64) uint64 {
	mask := uint64(1)<<width - 1
	var maxIdx uint64
	bit := 0
	for i := 0; i < len(dst); i++ {
		idx := binary.LittleEndian.Uint64(ext[bit>>3:]) >> (bit & 7) & mask
		if idx > maxIdx {
			maxIdx = idx
		}
		bit += width
		dst[i] = Branch{
			PC:    dict[idx&(ColumnarBlockSize-1)],
			Taken: dirs[i>>3]>>(i&7)&1 != 0,
			Kind:  Kind(kinds[i>>6] >> (i & 63) & 1),
		}
	}
	return maxIdx
}
