package trace

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReadText ensures the text parser never panics on arbitrary
// input, and that anything it accepts round-trips losslessly.
func FuzzReadText(f *testing.F) {
	f.Add([]byte("1a T c\n2b N c\nff T u\n"))
	f.Add([]byte("# comment\n\n0 N c\n"))
	f.Add([]byte("zz T c\n"))
	f.Add([]byte("1a T\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		branches, err := ReadText(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input must round-trip exactly.
		var out bytes.Buffer
		if err := WriteText(&out, NewSliceSource(branches)); err != nil {
			t.Fatalf("WriteText failed on accepted input: %v", err)
		}
		again, err := ReadText(&out)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if len(again) != len(branches) {
			t.Fatalf("round trip changed record count: %d vs %d", len(again), len(branches))
		}
		for i := range branches {
			if again[i] != branches[i] {
				t.Fatalf("record %d changed: %+v vs %+v", i, again[i], branches[i])
			}
		}
	})
}

// FuzzBinaryReader ensures the binary decoder never panics on
// arbitrary bytes: it must either produce records or return an error.
func FuzzBinaryReader(f *testing.F) {
	// A valid little trace as one seed.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Branch{PC: 0x100, Taken: true, Kind: Conditional})
	w.Write(Branch{PC: 0x104, Taken: true, Kind: Unconditional})
	w.Flush()
	f.Add(buf.Bytes())
	f.Add([]byte("GSKT"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < 1<<16; i++ {
			b, err := r.Next()
			if err != nil {
				return // io.EOF or a decode error: both fine
			}
			if b.Kind > Unconditional {
				t.Fatalf("decoder produced invalid kind %d", b.Kind)
			}
		}
	})
}

// FuzzColumnarRoundTrip derives a branch slice from arbitrary bytes,
// encodes it with the block-columnar writer, and requires every decode
// path — streaming Next, streaming NextBatch, and the mmap reader over
// a temp file — to reproduce the exact records and the same canonical
// content hash. It doubles as a never-panics target for the columnar
// decoder via the raw-bytes arm.
func FuzzColumnarRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(3))
	f.Add([]byte("abcdefgh12345678"), uint8(255))
	f.Add(bytes.Repeat([]byte{0x41}, 64), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		if mode&1 != 0 {
			// Raw-bytes arm: the decoder must never panic on
			// arbitrary input, only error or finish.
			m, err := newMapped(data, nil)
			if err != nil {
				return
			}
			buf := make([]Branch, 64)
			for i := 0; i < 1<<12; i++ {
				if _, err := m.NextBatch(buf); err != nil {
					break
				}
			}
			r, err := NewColumnarReader(bytes.NewReader(data))
			if err != nil {
				return
			}
			for i := 0; i < 1<<12; i++ {
				if _, err := r.Next(); err != nil {
					break
				}
			}
			return
		}
		// Round-trip arm: 9 fuzz bytes per record, PC spread chosen by
		// the mode byte so both the dictionary and raw-escape block
		// encodings get exercised.
		shift := uint(mode>>1) % 57
		var branches []Branch
		for len(data) >= 9 {
			pc := uint64(0)
			for i := 0; i < 8; i++ {
				pc = pc<<8 | uint64(data[i])
			}
			b := Branch{PC: pc >> shift, Taken: data[8]&2 != 0, Kind: Kind(data[8] & 1)}
			branches = append(branches, b)
			data = data[9:]
		}
		enc, err := EncodeColumnar(branches)
		if err != nil {
			t.Fatal(err)
		}
		want := HashBranches(branches)
		check := func(path string, got []Branch, err error) {
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if len(got) != len(branches) {
				t.Fatalf("%s: %d records, want %d", path, len(got), len(branches))
			}
			for i := range branches {
				if got[i] != branches[i] {
					t.Fatalf("%s: record %d = %+v, want %+v", path, i, got[i], branches[i])
				}
			}
			if h := HashBranches(got); h != want {
				t.Fatalf("%s: content hash %s, want %s", path, h, want)
			}
		}

		r, err := NewColumnarReader(bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Collect(r)
		check("Next", got, err)

		r, err = NewColumnarReader(bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		got = got[:0]
		buf := make([]Branch, 33)
		for {
			n, berr := r.NextBatch(buf)
			got = append(got, buf[:n]...)
			if berr == io.EOF {
				break
			}
			if berr != nil {
				t.Fatalf("NextBatch: %v", berr)
			}
		}
		check("NextBatch", got, nil)

		m, err := MapFile(writeTempTrace(t, enc))
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		got, err = Collect(m)
		check("MapFile", got, err)
	})
}

// FuzzBinaryRoundTrip checks arbitrary records encode and decode
// losslessly.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add(uint64(0x1234), true, false)
	f.Add(uint64(0), false, false)
	f.Add(^uint64(0), true, true)
	f.Fuzz(func(t *testing.T, pc uint64, taken, uncond bool) {
		in := Branch{PC: pc, Taken: taken, Kind: Conditional}
		if uncond {
			in.Kind = Unconditional
			in.Taken = true
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(in); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got != in {
			t.Fatalf("round trip: got %+v, want %+v", got, in)
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("trailing read error = %v, want EOF", err)
		}
	})
}

// FuzzColumnarUnpack diffs the dictionary-mode unpack this platform
// decodes with (the fast variant on amd64 and arm64) against the
// portable variant, compiled everywhere, on arbitrary packed-index,
// direction and kind streams laid out as decodeColumnarBlock hands
// them over: ext reaches 8 bytes past the packed indices into the
// direction words, and directions and kinds span whole 64-bit words.
// Both must return the same largest index and write the same records.
func FuzzColumnarUnpack(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint16(1))
	f.Add([]byte{0xA5, 0x3C, 0xFF, 0x01}, uint8(1), uint16(5))
	f.Add([]byte{0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE}, uint8(7), uint16(63))
	f.Add([]byte{0xFF, 0x00, 0x80, 0x7F}, uint8(12), uint16(ColumnarBlockSize))
	f.Add([]byte{0x5A}, uint8(11), uint16(ColumnarBlockSize-1))
	f.Fuzz(func(t *testing.T, data []byte, width uint8, count uint16) {
		w := int(width % 13)
		n := 1 + int(count)%ColumnarBlockSize
		packedLen := (n*w + 7) / 8
		words := (n + 63) / 64
		fill := func(i int) byte {
			if len(data) == 0 {
				return byte(i * 0x9D)
			}
			return data[i%len(data)] ^ byte(i/len(data)*0x3B)
		}
		payload := make([]byte, packedLen+words*8)
		for i := range payload {
			payload[i] = fill(i)
		}
		ext := payload[:packedLen+8]
		dirs := payload[packedLen:]
		kinds := make([]uint64, words)
		for i := range kinds {
			for b := 0; b < 8; b++ {
				kinds[i] |= uint64(fill(len(payload)+8*i+b)) << (8 * b)
			}
		}
		var dict [ColumnarBlockSize]uint64
		for i := range dict {
			dict[i] = uint64(i)*0x9E3779B97F4A7C15 ^ uint64(fill(i))
		}
		got := make([]Branch, n)
		want := make([]Branch, n)
		gotMax := unpackColumnarRecords(got, ext, dirs, &dict, w, kinds)
		wantMax := unpackColumnarRecordsPortable(want, ext, dirs, &dict, w, kinds)
		if gotMax != wantMax {
			t.Fatalf("width %d, %d records: largest index %d, portable %d", w, n, gotMax, wantMax)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("width %d, %d records: record %d is %+v, portable %+v", w, n, i, got[i], want[i])
			}
		}
	})
}

// encodeFuzzBranches derives count records from data and shape. shape
// bits 0-1 pick the PC pattern (0: a small hot set drawn from data, 1:
// a permutation of 4096 closely spaced PCs, every one distinct within
// a block but dictionary-encoded, 2: ascending PCs, which take the raw
// escape, 3: wide pseudo-random PCs), bits 2-3 the kind pattern (0:
// from data, 1: all conditional, 2: alternating, which takes the kind
// bitvector escape, 3: long runs opening unconditional) and bits 5-7 a
// right shift narrowing the PCs.
func encodeFuzzBranches(data []byte, count int, shape uint8) []Branch {
	x := uint64(len(data))*0x9E3779B97F4A7C15 + 1
	for _, c := range data {
		x = (x ^ uint64(c)) * 0xBF58476D1CE4E5B9
	}
	next := func() uint64 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return z ^ z>>31
	}
	at := func(i int) byte {
		if len(data) == 0 {
			return byte(next())
		}
		return data[i%len(data)] ^ byte(i/len(data))
	}
	base := next() >> 20
	shift := uint(shape >> 5)
	out := make([]Branch, count)
	for i := range out {
		var pc uint64
		switch shape & 3 {
		case 0:
			pc = base + uint64(at(i))
		case 1:
			pc = base + uint64(i)*2654435761%ColumnarBlockSize
		case 2:
			pc = base + uint64(i)
		case 3:
			pc = next()
		}
		b := Branch{PC: pc >> shift, Taken: next()&1 != 0}
		switch shape >> 2 & 3 {
		case 0:
			b.Kind = Kind(at(i+7) & 1)
		case 2:
			b.Kind = Kind(i & 1)
		case 3:
			b.Kind = Kind(1 - i/300&1)
		}
		out[i] = b
	}
	return out
}

// FuzzColumnarEncode requires the production columnar writer — both
// EncodeColumnar and a ColumnarWriter, clean and tampered — to emit
// exactly the bytes of the sort-and-search reference encoder
// (columnar_ref_test.go). shape bit 4 plants the bitpack-width
// tamper in the writer and the reference alike.
func FuzzColumnarEncode(f *testing.F) {
	f.Add([]byte{}, uint16(ColumnarBlockSize), uint8(1))                  // 4096 distinct PCs, width 12
	f.Add([]byte{1, 2, 3}, uint16(ColumnarBlockSize+1000), uint8(2))      // raw escape, partial final block
	f.Add([]byte("kinds"), uint16(ColumnarBlockSize), uint8(2<<2))        // kind bitvector escape
	f.Add([]byte("runs"), uint16(3*ColumnarBlockSize-5), uint8(3<<2))     // runs opening unconditional
	f.Add([]byte("hot set"), uint16(2*ColumnarBlockSize+77), uint8(1<<4)) // tampered writer
	f.Add([]byte{0xff}, uint16(1), uint8(3))                              // one wide record
	f.Add([]byte{9, 9}, uint16(130), uint8(3|5<<5))                       // narrowed random PCs
	f.Fuzz(func(t *testing.T, data []byte, n uint16, shape uint8) {
		branches := encodeFuzzBranches(data, int(n)%(3*ColumnarBlockSize+1), shape)
		tamper := shape&(1<<4) != 0
		want := referenceEncodeColumnar(branches, tamper)

		var buf bytes.Buffer
		w, err := NewColumnarWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if tamper {
			TamperColumnarBitpackWidth(w)
		}
		for _, b := range branches {
			if err := w.Write(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("ColumnarWriter (tamper %v): %d bytes differ from the reference's %d", tamper, buf.Len(), len(want))
		}
		if tamper {
			return
		}
		got, err := EncodeColumnar(branches)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("EncodeColumnar: %d bytes differ from the reference's %d", len(got), len(want))
		}
	})
}
