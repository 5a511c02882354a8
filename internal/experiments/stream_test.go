package experiments

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"gskew/internal/algotrace"
	"gskew/internal/predictor"
	"gskew/internal/sim"
	"gskew/internal/trace"
	"gskew/internal/workload"
)

// TestRunAllRetainsNoStream: the experiments that read recorded
// algorithms (ext-realwork) and seed- or quantum-derived traces
// (ext-variance, ext-quantum) stream them, so afterwards the Context
// trace cache holds benchmark traces only.
func TestRunAllRetainsNoStream(t *testing.T) {
	var exps []Experiment
	for _, id := range []string{"ext-realwork", "ext-variance", "ext-quantum"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	ctx := &Context{Scale: 0.002, Sched: NewSched(2), Segments: 1}
	if _, err := RunAll(ctx, exps); err != nil {
		t.Fatal(err)
	}
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	for name := range ctx.cache {
		if !slices.Contains(workload.Names(), name) {
			t.Errorf("Context cache holds %q, which is not a benchmark trace", name)
		}
	}
}

// totalAlloc returns the bytes fn allocates, by the TotalAlloc delta.
func totalAlloc(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestStreamedRunSpecsAllocation: a RunSpecs cell over a 1.5M-branch
// validation stream allocates a few blocks and the algorithm's input,
// under 2 MB, while the same cell over the materialised stream
// allocates the 24 MB+ stream itself.
func TestStreamedRunSpecsAllocation(t *testing.T) {
	const name = "algo:mp,n=300000,m=8,sigma=2,pat=rand,seed=2"
	specs := []predictor.Spec{specOf("bimodal:n=4,ctr=1"), specOf("bimodal:n=4,ctr=2")}
	ctx := &Context{Sched: NewSched(1), Segments: 1}
	var streamed []sim.Result
	var err error
	got := totalAlloc(func() { streamed, err = ctx.RunSpecs("alloc", name, specs, sim.Options{}) })
	if err != nil {
		t.Fatal(err)
	}
	records := streamed[0].Conditionals + streamed[0].Unconditionals
	if records < 1_500_000 {
		t.Fatalf("stream holds %d records, want >= 1.5M", records)
	}
	if got >= 2_000_000 {
		t.Errorf("streamed RunSpecs allocated %d bytes, want < 2 MB", got)
	}
	var held []sim.Result
	heldBytes := totalAlloc(func() {
		branches, rerr := algotrace.Record(algotrace.MustParseSpec(name))
		if rerr != nil {
			err = rerr
			return
		}
		held, err = sim.RunManyBranches(branches,
			[]predictor.Predictor{predictor.MustSpec(specs[0]), predictor.MustSpec(specs[1])}, sim.Options{Segments: 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("streamed RunSpecs allocated %d bytes, the materialised run %d", got, heldBytes)
	if stream := uint64(records) * uint64(unsafe.Sizeof(trace.Branch{})); heldBytes < stream {
		t.Errorf("materialised run allocated %d bytes, want at least the %d-byte stream", heldBytes, stream)
	}
	if !reflect.DeepEqual(streamed, held) {
		t.Errorf("streamed %v, materialised %v", streamed, held)
	}
}

// TestStreamedRunSpecsCurves: with RunObs recording interval curves, a
// streamed algo cell reports the curves and results of the same cell
// run through RunMany over the materialised stream.
func TestStreamedRunSpecsCurves(t *testing.T) {
	const name = "algo:heap,n=2048,runs=2,seed=3"
	specs := []predictor.Spec{specOf("gshare:n=9,k=8,ctr=2"), specOf("tage:n=5,k=20,kmin=4,tables=4,tag=8,ctr=3")}
	run := func(stream bool) ([]sim.Result, *RunObs) {
		o := &RunObs{Intervals: 700}
		ctx := &Context{Sched: NewSched(1), Obs: o}
		var res []sim.Result
		var err error
		if stream {
			res, err = ctx.RunSpecs("curves", name, specs, sim.Options{})
		} else {
			var branches []trace.Branch
			branches, err = algotrace.Record(algotrace.MustParseSpec(name))
			if err == nil {
				res, err = ctx.RunMany("curves", trace.NewSliceSource(branches),
					[]predictor.Predictor{predictor.MustSpec(specs[0]), predictor.MustSpec(specs[1])}, sim.Options{})
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		return res, o
	}
	gotRes, gotObs := run(true)
	wantRes, wantObs := run(false)
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Errorf("streamed %v, materialised %v", gotRes, wantRes)
	}
	got, want := gotObs.Series(), wantObs.Series()
	if len(got) != 2 || !reflect.DeepEqual(got, want) {
		t.Errorf("streamed curves %v, materialised %v", got, want)
	}
}
