package trace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// genBranches builds a deterministic pseudo-random trace shaped like a
// real workload: a hot loop set of PCs, occasional far jumps, ~10%
// unconditional branches.
func genBranches(seed uint64, n int) []Branch {
	x := seed*0x9e3779b97f4a7c15 + 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	out := make([]Branch, n)
	base := next() % (1 << 30)
	for i := range out {
		r := next()
		pc := base + r%257
		if r%97 == 0 {
			// Far jump: a fresh wide PC. Capped at 61 bits so the
			// legacy varint format's flag-shifted delta (62-bit
			// budget) stays lossless; full-64-bit PCs are covered by
			// the columnar raw-escape test and the fuzz targets.
			pc = next() >> 3
		}
		b := Branch{PC: pc, Taken: r&8 != 0, Kind: Conditional}
		if r%10 == 0 {
			b.Kind = Unconditional
			b.Taken = true
		}
		out[i] = b
	}
	return out
}

// encodeColumnarT encodes via the block writer, failing the test on
// error.
func encodeColumnarT(t testing.TB, branches []Branch) []byte {
	t.Helper()
	enc, err := EncodeColumnar(branches)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// requireEqual asserts two traces are record-for-record identical and
// share a content hash.
func requireEqual(t *testing.T, got, want []Branch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("record count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if g, w := HashBranches(got), HashBranches(want); g != w {
		t.Fatalf("content hash %s, want %s", g, w)
	}
}

// decodeNext drains src one Next call at a time.
func decodeNext(t *testing.T, src Source) []Branch {
	t.Helper()
	var out []Branch
	for {
		b, err := src.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
}

func decodeBatch(t *testing.T, src BatchSource, batch int) []Branch {
	t.Helper()
	var out []Branch
	buf := make([]Branch, batch)
	for {
		n, err := src.NextBatch(buf)
		out = append(out, buf[:n]...)
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// writeTempTrace writes enc to a file and returns its path.
func writeTempTrace(t testing.TB, enc []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.ctrace")
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestColumnarRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64, 65, 100, ColumnarBlockSize - 1, ColumnarBlockSize, ColumnarBlockSize + 1, 3*ColumnarBlockSize + 7} {
		branches := genBranches(uint64(n)+1, n)
		enc := encodeColumnarT(t, branches)

		// In memory, at every batch size: short batches go through the
		// staging buffer, whole-block ones decode straight into dst.
		for _, batch := range []int{1, 7, ColumnarBlockSize, ColumnarBlockSize * 2} {
			r, err := newMapped(enc, nil)
			if err != nil {
				t.Fatal(err)
			}
			requireEqual(t, decodeBatch(t, r, batch), branches)
		}

		m, err := MapFile(writeTempTrace(t, enc))
		if err != nil {
			t.Fatal(err)
		}
		requireEqual(t, decodeBatch(t, m, ColumnarBlockSize), branches)
		m.Reset()
		requireEqual(t, decodeNext(t, m), branches)
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}

		got, err := DecodeBytes(enc)
		if err != nil {
			t.Fatal(err)
		}
		requireEqual(t, got, branches)
	}
}

// TestColumnarRawEscape forces the raw-varint PC stream: a straight
// sweep of distinct, closely spaced PCs, where the raw one-byte deltas
// are far smaller than a 4096-entry dictionary plus packed indices —
// the shape the quarter-smaller escape threshold exists for.
func TestColumnarRawEscape(t *testing.T) {
	branches := make([]Branch, 2*ColumnarBlockSize+11)
	x := uint64(0x243f6a8885a308d3)
	pc := uint64(0x400000)
	for i := range branches {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		pc += 4 + x%32*4 // distinct ascending, deltas of a byte or two
		branches[i] = Branch{PC: pc, Taken: x&1 != 0, Kind: Conditional}
	}
	enc := encodeColumnarT(t, branches)
	// At least one block must have taken the escape: mode byte 1
	// appears in some block header.
	sawRaw := false
	off := 16
	for off < len(enc) {
		h, err := parseColumnarBlockHeader(enc[off:])
		if err != nil {
			t.Fatal(err)
		}
		if h.mode == 1 {
			sawRaw = true
		}
		off += columnarBlockHeaderSize + h.plen
	}
	if !sawRaw {
		t.Fatal("no block took the raw-varint escape on an all-distinct trace")
	}
	got, err := DecodeBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	requireEqual(t, got, branches)
}

// TestMapFileVarint: MapFile reads the legacy varint format too, by
// batch and by record, with Reset restarting the delta chain.
func TestMapFileVarint(t *testing.T) {
	branches := genBranches(77, 10000)
	m, err := MapFile(writeTempTrace(t, referenceEncodeVarint(branches)))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	requireEqual(t, decodeBatch(t, m, 4096), branches)
	m.Reset()
	requireEqual(t, decodeNext(t, m), branches)
}

// corrupting mutations, each of which must surface ErrCorrupt (never a
// silently different trace) through both DecodeBytes and MapFile.
func TestColumnarCorruption(t *testing.T) {
	branches := genBranches(3, ColumnarBlockSize+100)
	enc := encodeColumnarT(t, branches)
	const blockHdr = 16 // file header ends, first block header starts

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated-header", func(b []byte) []byte { return b[:blockHdr+7] }},
		{"truncated-payload", func(b []byte) []byte { return b[:len(b)-5] }},
		{"bad-checksum", func(b []byte) []byte {
			b[blockHdr+columnarBlockHeaderSize+8] ^= 0x40 // flip a payload byte
			return b
		}},
		{"forged-count", func(b []byte) []byte {
			b[blockHdr]++ // count+1 with an unchanged payload
			return b
		}},
		{"forged-count-zero", func(b []byte) []byte {
			b[blockHdr], b[blockHdr+1] = 0, 0
			b[blockHdr+2], b[blockHdr+3] = 0, 0
			return b
		}},
		{"forged-length", func(b []byte) []byte {
			b[blockHdr+6] = 0xff // payload length beyond the cap
			return b
		}},
		{"forged-mode", func(b []byte) []byte {
			b[blockHdr+12] = 7
			return b
		}},
		{"forged-reserved", func(b []byte) []byte {
			b[blockHdr+14] = 1
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.mutate(bytes.Clone(enc))

			if _, err := DecodeBytes(mut); !errors.Is(err, ErrCorrupt) {
				t.Errorf("DecodeBytes error = %v, want ErrCorrupt", err)
			}

			m, err := MapFile(writeTempTrace(t, mut))
			if err != nil {
				t.Fatalf("MapFile rejected header: %v", err)
			}
			defer m.Close()
			if _, err := drainAll(m); !errors.Is(err, ErrCorrupt) {
				t.Errorf("mapped reader error = %v, want ErrCorrupt", err)
			}
		})
	}
}

// drainAll batches a source to exhaustion, returning the first
// non-EOF error.
func drainAll(src BatchSource) (int, error) {
	buf := make([]Branch, ColumnarBlockSize)
	total := 0
	for {
		n, err := src.NextBatch(buf)
		total += n
		if errors.Is(err, io.EOF) {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// TestColumnarTamperedWidth: the planted bitpack-width fault must
// produce a stream that decodes cleanly (checksums are computed over
// the tampered payload) yet yields different records — the silent
// corruption shape the verify codec arm exists to catch.
func TestColumnarTamperedWidth(t *testing.T) {
	branches := genBranches(11, 2000)
	var buf bytes.Buffer
	w, err := NewColumnarWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	TamperColumnarBitpackWidth(w)
	for i := range branches {
		if err := w.Write(branches[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBytes(buf.Bytes())
	if err != nil {
		t.Fatalf("tampered stream must decode cleanly, got %v", err)
	}
	if HashBranches(got) == HashBranches(branches) {
		t.Fatal("tampered stream decoded to the original trace; the planted fault is unobservable")
	}
}

// TestMappedBatchZeroAlloc: the mmap batch decode path must be
// allocation-free once constructed, for both codecs.
func TestMappedBatchZeroAlloc(t *testing.T) {
	branches := genBranches(5, 3*ColumnarBlockSize)
	colPath := writeTempTrace(t, encodeColumnarT(t, branches))
	varPath := writeTempTrace(t, referenceEncodeVarint(branches))

	dst := make([]Branch, ColumnarBlockSize)
	for _, tc := range []struct {
		name, path string
	}{{"columnar", colPath}, {"varint", varPath}} {
		m, err := MapFile(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		drain := func() {
			m.Reset()
			for {
				_, err := m.NextBatch(dst)
				if errors.Is(err, io.EOF) {
					return
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		drain() // warm
		if allocs := testing.AllocsPerRun(10, drain); allocs != 0 {
			t.Errorf("%s mmap NextBatch allocates %.1f objects per replay, want 0", tc.name, allocs)
		}
		m.Close()
	}
}

// TestColumnarEncodeZeroAllocPerBlock: encoding through a reused
// ColumnarWriter allocates nothing per block, on the dictionary, raw
// escape and kind-bitvector paths alike, and EncodeColumnar allocates
// only the slice it returns.
func TestColumnarEncodeZeroAllocPerBlock(t *testing.T) {
	for name, branches := range map[string][]Branch{
		"dictionary":  genBranches(5, 3*ColumnarBlockSize+100),
		"raw escape":  encodeFuzzBranches(nil, 2*ColumnarBlockSize+7, 2),
		"kind bitvec": encodeFuzzBranches([]byte("kinds"), 2*ColumnarBlockSize, 2<<2),
	} {
		w, err := NewColumnarWriter(io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		encode := func() {
			for _, b := range branches {
				if err := w.Write(b); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		encode() // warm the block scratch
		if allocs := testing.AllocsPerRun(10, encode); allocs != 0 {
			t.Errorf("%s: ColumnarWriter allocates %.1f objects per %d-record encode, want 0", name, allocs, len(branches))
		}
		if raceEnabled {
			continue
		}
		encodeColumnarT(t, branches) // warm the pool
		if allocs := testing.AllocsPerRun(10, func() { encodeColumnarT(t, branches) }); allocs > 1 {
			t.Errorf("%s: EncodeColumnar allocates %.1f objects per call, want 1 (its result)", name, allocs)
		}
	}
}

// TestEncodeColumnarConcurrent: EncodeColumnar's pooled scratch is
// shared by concurrent callers, and each must still get exactly the
// bytes a sequential encode gives.
func TestEncodeColumnarConcurrent(t *testing.T) {
	traces := make([][]Branch, 8)
	want := make([][]byte, len(traces))
	for i := range traces {
		traces[i] = genBranches(uint64(100+i), (i+1)*1500)
		want[i] = referenceEncodeColumnar(traces[i], false)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				for i := range traces {
					i := (i + g) % len(traces)
					got, err := EncodeColumnar(traces[i])
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(got, want[i]) {
						t.Errorf("goroutine %d: trace %d encodes differently under concurrency", g, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestColumnarEmptyAndHeader: degenerate containers.
func TestColumnarEmptyAndHeader(t *testing.T) {
	enc := encodeColumnarT(t, nil)
	if len(enc) != 16 {
		t.Fatalf("empty trace encodes to %d bytes, want 16", len(enc))
	}
	got, err := DecodeBytes(enc)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty decode = %d records, %v", len(got), err)
	}
	if _, err := DecodeBytes([]byte("GSKC\x01")); err == nil {
		t.Fatal("DecodeBytes accepted a truncated columnar header")
	}
	if _, err := DecodeBytes([]byte("bogus")); err == nil {
		t.Fatal("DecodeBytes accepted garbage")
	}
	bad := bytes.Clone(enc)
	bad[4] = 9
	if _, err := DecodeBytes(bad); err == nil {
		t.Fatal("DecodeBytes accepted an unknown version")
	}
}
