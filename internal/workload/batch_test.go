package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"

	"gskew/internal/trace"
)

// TestGeneratorNextBatchMatchesNext: batched generation must produce
// the identical event stream — same walker advances, same scheduler
// decisions — as per-event generation, for every benchmark and for
// buffer sizes that end inside, exactly at and across scheduler quanta.
func TestGeneratorNextBatchMatchesNext(t *testing.T) {
	const total = 60000
	for _, name := range Names() {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Scale: 0.002}
		one, err := New(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]trace.Branch, total)
		for i := range want {
			if want[i], err = one.Next(); err != nil {
				t.Fatal(err)
			}
		}
		// 1 and 3 end inside a quantum; 777, 1999 and 4099 straddle
		// quantum boundaries (benchmark quanta average 900–2000
		// branches, kernel bursts a quarter of that).
		for _, size := range []int{1, 3, 777, 1999, 4099} {
			bat, err := New(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]trace.Branch, 0, total)
			buf := make([]trace.Branch, size)
			for len(got) < total {
				w := buf
				if rem := total - len(got); rem < len(w) {
					w = w[:rem]
				}
				n, err := bat.NextBatch(w)
				if n != len(w) || err != nil {
					t.Fatalf("%s: NextBatch = %d, %v; want %d, nil", name, n, err, len(w))
				}
				got = append(got, w...)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s, buffer %d: event %d: batched %+v, per-event %+v", name, size, i, got[i], want[i])
				}
			}
		}
	}
}

// TestGeneratorStreamPinned pins a digest of the first 300k records of
// every benchmark (seed offset 3), taken from the tree-walking
// generator the compiled one replaced: the bytes must not move.
func TestGeneratorStreamPinned(t *testing.T) {
	pins := map[string]string{
		"groff":     "6738e707bda99745c4186aa16e8124b15cd6bc4b73d4abefd20fa1c286a6c765",
		"gs":        "a76ca928b0872efe07ed301acf8ae7b07553927b508b9a5647387cf06aa2ef7c",
		"mpeg_play": "7270a99d072eddb5077a74489cf488c042058d08de31209b181dd656e55d966d",
		"nroff":     "e9f0523f786803773e893f00598d971daa4b750a50fe510eeda96ef39cdf3ba0",
		"real_gcc":  "7b8eb08e506dd8a27c5b210037a18672ce05dfd87c86c6f6496c411601a1e385",
		"verilog":   "e78989de157463feca5d19317be9af84444859ef594bab4f67b2aff82811c981",
	}
	for _, name := range Names() {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := New(spec, Config{SeedOffset: 3})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]trace.Branch, 300000)
		if _, err := g.NextBatch(buf); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var rec [10]byte
		for _, b := range buf {
			binary.LittleEndian.PutUint64(rec[:8], b.PC)
			rec[8] = 0
			if b.Taken {
				rec[8] = 1
			}
			rec[9] = byte(b.Kind)
			h.Write(rec[:])
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != pins[name] {
			t.Errorf("%s: stream digest %s, pinned %s", name, got, pins[name])
		}
	}
}

// TestGeneratorNextBatchAllocatesNothing: a warm generator fills a
// block without allocating.
func TestGeneratorNextBatchAllocatesNothing(t *testing.T) {
	spec, err := ByName("real_gcc")
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(spec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]trace.Branch, trace.BlockLen)
	if _, err := g.NextBatch(buf); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(50, func() { g.NextBatch(buf) }); a != 0 {
		t.Errorf("NextBatch of %d records: %v allocations, want 0", len(buf), a)
	}
}

// TestTakeNextBatchMatchesNext: the bounded batched stream must equal
// the bounded per-event stream record for record, including the stop
// point after the n-th conditional.
func TestTakeNextBatchMatchesNext(t *testing.T) {
	spec, err := ByName("groff")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Scale: 0.002}
	const bound = 20000
	mk := func() *Take {
		g, err := New(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return NewTake(g, bound)
	}

	var want []trace.Branch
	one := mk()
	for {
		b, err := one.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, b)
	}

	for _, window := range []int{1, 97, 4096} {
		bat := mk()
		var got []trace.Branch
		buf := make([]trace.Branch, window)
		for {
			n, err := bat.NextBatch(buf)
			got = append(got, buf[:n]...)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("window %d: %d records batched, %d per-event", window, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("window %d: record %d: batched %+v, per-event %+v", window, i, got[i], want[i])
			}
		}
		conds := 0
		for _, b := range got {
			if b.Kind == trace.Conditional {
				conds++
			}
		}
		if conds != bound {
			t.Fatalf("window %d: %d conditionals delivered, want %d", window, conds, bound)
		}
		if got[len(got)-1].Kind != trace.Conditional {
			t.Errorf("window %d: stream does not end on the bounding conditional", window)
		}
	}
}
