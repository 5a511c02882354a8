package trace

import (
	"errors"
	"io"
	"testing"
)

// collectBatched drains src through NextBatch windows of the given
// size.
func collectBatched(t *testing.T, src Source, window int) []Branch {
	t.Helper()
	var out []Branch
	buf := make([]Branch, window)
	for {
		n, err := ReadBatch(src, buf)
		out = append(out, buf[:n]...)
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestSliceSourceNextBatch(t *testing.T) {
	in := randomTrace(21, 1000)
	for _, window := range []int{1, 3, 7, 256, 1000, 4096} {
		s := NewSliceSource(in)
		got := collectBatched(t, s, window)
		if len(got) != len(in) {
			t.Fatalf("window %d: got %d records, want %d", window, len(got), len(in))
		}
		for i := range in {
			if got[i] != in[i] {
				t.Fatalf("window %d: record %d = %+v, want %+v", window, i, got[i], in[i])
			}
		}
	}
}

// TestReaderNextBatchMatchesNext: Mapped's legacy varint arm must yield
// exactly the encoded record sequence through per-record Next and
// through NextBatch at every window size.
func TestReaderNextBatchMatchesNext(t *testing.T) {
	in := randomTrace(22, 20000)
	enc := referenceEncodeVarint(in)

	m, err := newMapped(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireEqual(t, decodeNext(t, m), in)

	for _, window := range []int{1, 2, 63, 4096} {
		m, err := newMapped(enc, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := collectBatched(t, m, window)
		if len(got) != len(in) {
			t.Fatalf("window %d: got %d records, want %d", window, len(got), len(in))
		}
		for i := range in {
			if got[i] != in[i] {
				t.Fatalf("window %d: record %d = %+v, want %+v", window, i, got[i], in[i])
			}
		}
	}
}

// TestReaderNextBatchInterleaved: mixing Next and NextBatch calls on
// one Mapped must keep the varint delta chain intact.
func TestReaderNextBatchInterleaved(t *testing.T) {
	in := randomTrace(23, 5000)
	r, err := newMapped(referenceEncodeVarint(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []Branch
	batch := make([]Branch, 37)
	for i := 0; ; i++ {
		if i%2 == 0 {
			b, err := r.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, b)
			continue
		}
		n, err := r.NextBatch(batch)
		got = append(got, batch[:n]...)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(in) {
		t.Fatalf("got %d records, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], in[i])
		}
	}
}

// TestReadBatchFallback: sources without a bulk path still work
// through ReadBatch.
type nextOnly struct{ s *SliceSource }

func (n nextOnly) Next() (Branch, error) { return n.s.Next() }

func TestReadBatchFallback(t *testing.T) {
	in := randomTrace(24, 100)
	src := nextOnly{NewSliceSource(in)}
	got := collectBatched(t, src, 33)
	if len(got) != len(in) {
		t.Fatalf("got %d records, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

// TestNextBatchZeroAllocs: batch decoding into a reused buffer must
// not allocate per call, for an in-memory legacy varint stream (the
// decoder behind DecodeBytes) and for a SliceSource.
func TestNextBatchZeroAllocs(t *testing.T) {
	in := randomTrace(25, 300000)
	r, err := newMapped(referenceEncodeVarint(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]Branch, 4096)
	allocs := testing.AllocsPerRun(40, func() {
		if _, err := r.NextBatch(dst); err != nil && !errors.Is(err, io.EOF) {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Mapped.NextBatch (varint) allocates %.1f objects per call, want 0", allocs)
	}

	s := NewSliceSource(in)
	allocs = testing.AllocsPerRun(40, func() {
		if _, err := s.NextBatch(dst); err != nil && !errors.Is(err, io.EOF) {
			t.Fatal(err)
		}
		if s.pos >= len(in) {
			s.Reset()
		}
	})
	if allocs != 0 {
		t.Errorf("SliceSource.NextBatch allocates %.1f objects per call, want 0", allocs)
	}
}
