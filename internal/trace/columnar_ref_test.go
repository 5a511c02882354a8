package trace

import (
	"encoding/binary"
	"hash/crc32"
	"math/bits"
	"slices"
)

// referenceEncodeColumnar is the straightforward block-columnar writer:
// per block it copies and sorts every record's PC, compacts the copy
// into the dictionary and binary-searches it once per record. It shares
// no block-encoding code with ColumnarWriter (only the format's
// constants and the zigzag/uvarintLen helpers), so FuzzColumnarEncode
// can demand byte-identical output from the two. tamperWidth plants the
// same bitpack-width off-by-one as TamperColumnarBitpackWidth.
func referenceEncodeColumnar(branches []Branch, tamperWidth bool) []byte {
	out := make([]byte, 16)
	copy(out[:4], magicColumnar[:])
	out[4] = columnarVersion
	for len(branches) > 0 {
		n := min(len(branches), ColumnarBlockSize)
		out = referenceColumnarBlock(out, branches[:n], tamperWidth)
		branches = branches[n:]
	}
	return out
}

// referenceColumnarBlock appends one encoded block (header and
// payload) of recs to out.
func referenceColumnarBlock(out []byte, recs []Branch, tamperWidth bool) []byte {
	count := len(recs)

	// Dictionary: the block's distinct PCs, sorted.
	dict := make([]uint64, 0, count)
	for i := range recs {
		dict = append(dict, recs[i].PC)
	}
	slices.Sort(dict)
	dict = slices.Compact(dict)
	dictCount := len(dict)
	width := bits.Len(uint(dictCount - 1))

	// Cost both PC encodings; the raw escape must be at least a
	// quarter smaller.
	dictCost := uvarintLen(uint64(dictCount)) + uvarintLen(dict[0])
	for i := 1; i < dictCount; i++ {
		dictCost += uvarintLen(dict[i] - dict[i-1])
	}
	dictCost += 1 + (count*width+7)/8
	rawCost := 0
	prev := uint64(0)
	for i := range recs {
		rawCost += uvarintLen(zigzag(int64(recs[i].PC) - int64(prev)))
		prev = recs[i].PC
	}

	var payload []byte
	mode := byte(0)
	if rawCost*4 < dictCost*3 {
		mode = 1
		prev = 0
		for i := range recs {
			payload = binary.AppendUvarint(payload, zigzag(int64(recs[i].PC)-int64(prev)))
			prev = recs[i].PC
		}
	} else {
		payload = binary.AppendUvarint(payload, uint64(dictCount))
		payload = binary.AppendUvarint(payload, dict[0])
		for i := 1; i < dictCount; i++ {
			payload = binary.AppendUvarint(payload, dict[i]-dict[i-1])
		}
		packWidth := width
		if tamperWidth && packWidth > 0 {
			packWidth--
		}
		payload = append(payload, byte(packWidth))
		mask := uint64(1)<<packWidth - 1
		var acc uint64
		accBits := 0
		for i := range recs {
			idx, _ := slices.BinarySearch(dict, recs[i].PC)
			acc |= (uint64(idx) & mask) << accBits
			accBits += packWidth
			for accBits >= 8 {
				payload = append(payload, byte(acc))
				acc >>= 8
				accBits -= 8
			}
		}
		if accBits > 0 {
			payload = append(payload, byte(acc))
		}
	}

	// Direction bitvector.
	var word uint64
	for i := range recs {
		if recs[i].Taken {
			word |= 1 << (i & 63)
		}
		if i&63 == 63 {
			payload = binary.LittleEndian.AppendUint64(payload, word)
			word = 0
		}
	}
	if count&63 != 0 {
		payload = binary.LittleEndian.AppendUint64(payload, word)
	}

	// Kind stream: run lengths unless the raw bitvector is smaller.
	var runs []uint64
	runKind := Conditional
	for i := 0; i < count; runKind ^= 1 {
		run := 0
		for i+run < count && recs[i+run].Kind == runKind {
			run++
		}
		runs = append(runs, uint64(run))
		i += run
	}
	runCost := 0
	for _, r := range runs {
		runCost += uvarintLen(r)
	}
	if words := (count + 63) / 64; runCost <= words*8 {
		payload = append(payload, kindStreamRuns)
		for _, r := range runs {
			payload = binary.AppendUvarint(payload, r)
		}
	} else {
		payload = append(payload, kindStreamBits)
		word = 0
		for i := range recs {
			word |= uint64(recs[i].Kind) << (i & 63)
			if i&63 == 63 {
				payload = binary.LittleEndian.AppendUint64(payload, word)
				word = 0
			}
		}
		if count&63 != 0 {
			payload = binary.LittleEndian.AppendUint64(payload, word)
		}
	}

	var hdr [columnarBlockHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(count))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.Checksum(payload, castagnoli))
	hdr[12] = mode
	out = append(out, hdr[:]...)
	return append(out, payload...)
}
