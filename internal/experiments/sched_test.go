package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"gskew/internal/obs"
	"gskew/internal/predictor"
	"gskew/internal/sim"
	"gskew/internal/trace"
)

func TestMapRunsEveryIndexBounded(t *testing.T) {
	s := NewSched(2)
	var ran [16]int32
	var inFlight, peak int32
	err := s.Map(len(ran), func(i int) error {
		cur := atomic.AddInt32(&inFlight, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if cur <= p || atomic.CompareAndSwapInt32(&peak, p, cur) {
				break
			}
		}
		atomic.AddInt32(&ran[i], 1)
		atomic.AddInt32(&inFlight, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range ran {
		if n != 1 {
			t.Errorf("index %d ran %d times", i, n)
		}
	}
	if p := atomic.LoadInt32(&peak); p > 2 {
		t.Errorf("peak concurrency %d exceeds scheduler width 2", p)
	}
}

// TestMapCellsRunConcurrently proves at least 4 cells are genuinely
// in flight at once: every cell blocks on a barrier that only opens
// when all 4 have arrived, so a scheduler that serialised them would
// deadlock (caught by the test timeout).
func TestMapCellsRunConcurrently(t *testing.T) {
	s := NewSched(4)
	var barrier sync.WaitGroup
	barrier.Add(4)
	err := s.Map(4, func(i int) error {
		barrier.Done()
		barrier.Wait()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	s := NewSched(4)
	errLow, errHigh := errors.New("low"), errors.New("high")
	err := s.Map(8, func(i int) error {
		switch i {
		case 2:
			return errLow
		case 5:
			return errHigh
		default:
			return nil
		}
	})
	if !errors.Is(err, errLow) {
		t.Errorf("Map error = %v, want the lowest failing index's error %v", err, errLow)
	}
}

func TestMapSerialSchedulerPreservesOrder(t *testing.T) {
	s := NewSched(1)
	if s.Jobs() != 1 {
		t.Fatalf("Jobs() = %d", s.Jobs())
	}
	var order []int
	err := s.Map(5, func(i int) error {
		order = append(order, i) // no lock: width 1 means inline calls
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("serial execution order %v, want 0..4 in order", order)
		}
	}
}

func TestMapZeroCells(t *testing.T) {
	if err := NewSched(4).Map(0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

// TestTraceConcurrentSameSlice checks the per-key sync.Once cache:
// racing goroutines must all observe the one generated trace (same
// backing array), never a duplicate generation.
func TestTraceConcurrentSameSlice(t *testing.T) {
	ctx := &Context{Scale: 0.002}
	const goroutines = 8
	ptrs := make([]*trace.Branch, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			branches, err := ctx.Trace("verilog")
			if err != nil {
				t.Error(err)
				return
			}
			if len(branches) == 0 {
				t.Error("empty trace")
				return
			}
			ptrs[g] = &branches[0]
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if ptrs[g] != ptrs[0] {
			t.Errorf("goroutine %d got a different trace slice (generated twice?)", g)
		}
	}
}

// TestRunAllDeterministicAcrossJobs renders a representative slice of
// the suite (simulation tables, per-benchmark bundles, figures) under
// a serial and a wide scheduler and requires byte-identical output —
// the contract `cmd/experiments` relies on for -jobs.
func TestRunAllDeterministicAcrossJobs(t *testing.T) {
	ids := []string{"table1", "fig3", "fig4", "fig9", "ablation-counters"}
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps[i] = e
	}
	render := func(jobs int) []byte {
		t.Helper()
		ctx := &Context{
			Scale:      0.005,
			Benchmarks: []string{"verilog", "nroff"},
			Sched:      NewSched(jobs),
		}
		results, err := RunAll(ctx, exps)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for i, r := range results {
			buf.WriteString("== " + exps[i].ID + " ==\n")
			if err := r.WriteText(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	serial := render(1)
	wide := render(4)
	if !bytes.Equal(serial, wide) {
		t.Errorf("rendered output differs between -jobs 1 (%d bytes) and -jobs 4 (%d bytes)",
			len(serial), len(wide))
	}
}

// TestRunAllDeterministicAcrossSegments is the same contract for
// -segments: the segment-parallel engine is an execution strategy, so
// a representative suite slice rendered with Segments 1 and a forced
// multi-segment split must be byte-identical.
func TestRunAllDeterministicAcrossSegments(t *testing.T) {
	ids := []string{"table1", "fig3", "ext-flush", "ablation-counters"}
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps[i] = e
	}
	render := func(segments int) []byte {
		t.Helper()
		ctx := &Context{
			Scale:      0.005,
			Benchmarks: []string{"verilog", "nroff"},
			Sched:      NewSched(1),
			Segments:   segments,
		}
		results, err := RunAll(ctx, exps)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for i, r := range results {
			buf.WriteString("== " + exps[i].ID + " ==\n")
			if err := r.WriteText(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	serial := render(1)
	segmented := render(5)
	if !bytes.Equal(serial, segmented) {
		t.Errorf("rendered output differs between -segments 1 (%d bytes) and -segments 5 (%d bytes)",
			len(serial), len(segmented))
	}
}

// TestRunObsManifestConcurrent: cells on different scheduler workers
// append to one RunObs manifest, which must record every cell exactly
// once (run under -race by `make check`).
func TestRunObsManifestConcurrent(t *testing.T) {
	const cells = 16
	ctx := &Context{Scale: 0.002, Sched: NewSched(4), Segments: 1, Obs: &RunObs{Intervals: 1000, Manifest: obs.NewManifest("test", nil)}}
	branches, err := ctx.Trace("verilog")
	if err != nil {
		t.Fatal(err)
	}
	err = ctx.sched().Map(cells, func(i int) error {
		preds := []predictor.Predictor{predictor.MustSpec(predictor.Spec{Family: "gshare", N: 8, Hist: uint(i % 8), Ctr: 2})}
		_, err := ctx.RunMany(fmt.Sprintf("cell/%d", i), trace.NewSliceSource(branches), preds, sim.Options{})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, c := range ctx.Obs.Manifest.Cells {
		seen[c.ID] = true
	}
	if len(ctx.Obs.Manifest.Cells) != cells || len(seen) != cells {
		t.Errorf("manifest holds %d cells (%d distinct), want %d", len(ctx.Obs.Manifest.Cells), len(seen), cells)
	}
	if got := len(ctx.Obs.Series()); got != cells {
		t.Errorf("captured %d interval series, want %d", got, cells)
	}
}
