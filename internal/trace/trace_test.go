package trace

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"gskew/internal/rng"
)

func randomTrace(seed uint64, n int) []Branch {
	r := rng.NewXoshiro256(seed)
	out := make([]Branch, n)
	pc := uint64(0x1000)
	for i := range out {
		// Mix of local jitter and occasional far jumps, like real code.
		switch r.Intn(4) {
		case 0:
			pc += r.Uint64n(16)
		case 1:
			pc -= r.Uint64n(16)
		default:
			if r.Bool(0.05) {
				pc = r.Uint64n(1 << 30)
			} else {
				pc++
			}
		}
		kind := Conditional
		taken := r.Bool(0.6)
		if r.Bool(0.25) {
			kind = Unconditional
			taken = true
		}
		out[i] = Branch{PC: pc, Taken: taken, Kind: kind}
	}
	return out
}

func TestKindString(t *testing.T) {
	if Conditional.String() != "cond" || Unconditional.String() != "uncond" {
		t.Error("Kind.String misbehaves")
	}
	if got := Kind(9).String(); got != "kind(9)" {
		t.Errorf("Kind(9).String() = %q", got)
	}
}

func TestSliceSource(t *testing.T) {
	in := []Branch{{PC: 1, Taken: true}, {PC: 2, Taken: false}}
	s := NewSliceSource(in)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	got, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != in[0] || got[1] != in[1] {
		t.Fatalf("Collect = %v", got)
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("exhausted source err = %v, want EOF", err)
	}
	s.Reset()
	if b, err := s.Next(); err != nil || b != in[0] {
		t.Fatal("Reset did not rewind")
	}
}

func TestSliceSourceDrain(t *testing.T) {
	in := []Branch{{PC: 1, Taken: true}, {PC: 2}, {PC: 3, Taken: true}}
	s := NewSliceSource(in)
	// Drain after a partial read returns exactly the remainder, backed
	// by the original array (no copy).
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	rest := s.Drain()
	if len(rest) != 2 || &rest[0] != &in[1] {
		t.Fatalf("Drain after one Next = %v (copied=%v)", rest, len(rest) > 0 && &rest[0] != &in[1])
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("source not exhausted after Drain: %v", err)
	}
	if got := s.Drain(); len(got) != 0 {
		t.Fatalf("second Drain = %v, want empty", got)
	}
	// Reset rewinds a drained source for replay.
	s.Reset()
	if full := s.Drain(); len(full) != 3 || &full[0] != &in[0] {
		t.Fatalf("Drain after Reset = %v", full)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	in := randomTrace(42, 5000)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range in {
		if err := w.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(in) {
		t.Fatalf("decoded %d records, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], in[i])
		}
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed uint64, n16 uint16) bool {
		n := int(n16 % 512)
		in := randomTrace(seed, n)
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for _, b := range in {
			if err := w.Write(b); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := Collect(r)
		if err != nil || len(got) != len(in) {
			return false
		}
		for i := range in {
			if got[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBinaryCompression(t *testing.T) {
	// Loop-like traces (small PC deltas) must encode compactly:
	// well under 3 bytes per record on average.
	in := make([]Branch, 10000)
	for i := range in {
		in[i] = Branch{PC: uint64(0x400 + i%8), Taken: i%3 != 0}
	}
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for _, b := range in {
		if err := w.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	if perRec := float64(buf.Len()) / float64(len(in)); perRec > 3 {
		t.Errorf("loop trace encodes at %.2f bytes/record, want < 3", perRec)
	}
}

func TestReaderRejectsBadHeader(t *testing.T) {
	cases := map[string][]byte{
		"short":       {1, 2, 3},
		"bad magic":   append([]byte("XXXX"), make([]byte, 12)...),
		"bad version": append([]byte{'G', 'S', 'K', 'T', 99}, make([]byte, 11)...),
	}
	for name, data := range cases {
		if _, err := NewReader(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: NewReader accepted invalid header", name)
		}
	}
}

func TestWriterRejectsBadKind(t *testing.T) {
	w, _ := NewWriter(&bytes.Buffer{})
	if err := w.Write(Branch{Kind: Kind(7)}); err == nil {
		t.Error("Write accepted invalid kind")
	}
	cw, _ := NewColumnarWriter(&bytes.Buffer{})
	if err := cw.Write(Branch{Kind: Kind(7)}); err == nil {
		t.Error("ColumnarWriter.Write accepted invalid kind")
	}
	// EncodeColumnar checks kinds in its block pass, including in a
	// later block than the first.
	branches := genBranches(3, ColumnarBlockSize+10)
	branches[ColumnarBlockSize+5].Kind = Kind(2)
	if _, err := EncodeColumnar(branches); err == nil || !strings.Contains(err.Error(), "invalid kind 2") {
		t.Errorf("EncodeColumnar of an invalid kind: err %v, want invalid kind 2", err)
	}
}

func TestZigzag(t *testing.T) {
	for _, d := range []int64{0, 1, -1, 2, -2, 1 << 40, -(1 << 40), 1<<62 - 1, -(1 << 62)} {
		if got := unzigzag(zigzag(d)); got != d {
			t.Errorf("unzigzag(zigzag(%d)) = %d", d, got)
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	in := randomTrace(7, 500)
	var buf bytes.Buffer
	if err := WriteText(&buf, NewSliceSource(in)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(in) {
		t.Fatalf("decoded %d records, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], in[i])
		}
	}
}

func TestReadTextCommentsAndBlanks(t *testing.T) {
	src := "# a comment\n\n1a T c\n   \n2b N c\n# trailing\nff T u\n"
	got, err := ReadText(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	want := []Branch{
		{PC: 0x1a, Taken: true, Kind: Conditional},
		{PC: 0x2b, Taken: false, Kind: Conditional},
		{PC: 0xff, Taken: true, Kind: Unconditional},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := map[string]string{
		"bad fields":       "1a T\n",
		"bad pc":           "zz T c\n",
		"bad direction":    "1a X c\n",
		"bad kind":         "1a T x\n",
		"not-taken uncond": "1a N u\n",
	}
	for name, src := range cases {
		if _, err := ReadText(strings.NewReader(src)); err == nil {
			t.Errorf("%s: ReadText accepted %q", name, src)
		}
	}
}

func TestStats(t *testing.T) {
	branches := []Branch{
		{PC: 1, Taken: true, Kind: Conditional},
		{PC: 1, Taken: false, Kind: Conditional},
		{PC: 2, Taken: true, Kind: Conditional},
		{PC: 9, Taken: true, Kind: Unconditional},
		{PC: 9, Taken: true, Kind: Unconditional},
	}
	st, err := Measure(NewSliceSource(branches))
	if err != nil {
		t.Fatal(err)
	}
	if st.Dynamic != 3 || st.Static != 2 {
		t.Errorf("cond: dyn=%d static=%d, want 3/2", st.Dynamic, st.Static)
	}
	if st.DynamicUncond != 2 || st.StaticUncond != 1 {
		t.Errorf("uncond: dyn=%d static=%d, want 2/1", st.DynamicUncond, st.StaticUncond)
	}
	if st.Total() != 5 {
		t.Errorf("Total = %d", st.Total())
	}
	if got := st.TakenRatio(); got < 0.66 || got > 0.67 {
		t.Errorf("TakenRatio = %f, want 2/3", got)
	}
}

// TestMeasureAndWriteTextAcrossBlocks: over a trace several blocks
// long, Measure and WriteText give the same result whether the source
// is a slice, a batch source or a plain per-record one, and WriteText
// writes each record as "%x %c %c".
func TestMeasureAndWriteTextAcrossBlocks(t *testing.T) {
	in := randomTrace(11, 3*BlockLen+17)
	var want bytes.Buffer
	wantSt := NewStats()
	for _, b := range in {
		dir, kind := 'N', 'c'
		if b.Taken {
			dir = 'T'
		}
		if b.Kind == Unconditional {
			kind = 'u'
		}
		fmt.Fprintf(&want, "%x %c %c\n", b.PC, dir, kind)
		wantSt.Observe(b)
	}
	sources := map[string]func() Source{
		"slice": func() Source { return NewSliceSource(in) },
		"batch": func() Source { return struct{ BatchSource }{NewSliceSource(in)} },
		"plain": func() Source { return nextOnly{NewSliceSource(in)} },
	}
	for name, open := range sources {
		var got bytes.Buffer
		if err := WriteText(&got, open()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: WriteText output differs from the per-record format", name)
		}
		st, err := Measure(open())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Dynamic != wantSt.Dynamic || st.Static != wantSt.Static || st.DynamicUncond != wantSt.DynamicUncond ||
			st.StaticUncond != wantSt.StaticUncond || st.TakenCond != wantSt.TakenCond || st.Total() != wantSt.Total() {
			t.Errorf("%s: Measure %+v, per-record Observe %+v", name, *st, *wantSt)
		}
	}
}

func TestStatsEmpty(t *testing.T) {
	st := NewStats()
	if st.TakenRatio() != 0 {
		t.Error("empty TakenRatio != 0")
	}
}

func BenchmarkBinaryWrite(b *testing.B) {
	in := randomTrace(1, 1<<16)
	b.ResetTimer()
	w, _ := NewWriter(io.Discard)
	for i := 0; i < b.N; i++ {
		_ = w.Write(in[i&(1<<16-1)])
	}
	w.Flush()
}

func BenchmarkBinaryRead(b *testing.B) {
	in := randomTrace(1, 1<<16)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for _, br := range in {
		w.Write(br)
	}
	w.Flush()
	data := buf.Bytes()
	b.ResetTimer()
	b.SetBytes(int64(len(data)) / (1 << 16))
	var r *Reader
	for i := 0; i < b.N; i++ {
		if i&(1<<16-1) == 0 {
			r, _ = NewReader(bytes.NewReader(data))
		}
		if _, err := r.Next(); err != nil {
			b.Fatal(err)
		}
	}
}
