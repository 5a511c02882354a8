package sim

import (
	"runtime"
	"testing"

	"gskew/internal/obs"
	"gskew/internal/predictor"
)

// pathCounts snapshots the path-provenance counters.
func pathCounts() [5]int64 {
	return [5]int64{mPathGroup.Value(), mPathKernel.Value(), mPathStepper.Value(),
		mPathGeneric.Value(), mPathCellPar.Value()}
}

// TestPathCountersOnePerCell: every cell of a run is counted once, on
// the path that stepped it — eight same-shape gshare lanes on a
// bitsliced group, gskewed and TAGE on compiled kernels, the
// perceptron on its Stepper and a first-use-tracking reference table
// on the generic pair — a cell-parallel run adds each of its cells
// to cellpar, and a one-predictor auto run does not.
func TestPathCountersOnePerCell(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	branches := manyTestTrace(20000)
	var preds []predictor.Predictor
	for range 8 {
		preds = append(preds, predictor.MustParseSpec("gshare:n=10,k=8,ctr=2"))
	}
	preds = append(preds,
		predictor.MustParseSpec("gskewed:n=8,k=8,banks=3,ctr=2,policy=partial"),
		predictor.MustParseSpec("tage:n=7,k=20,kmin=4,tables=4,tag=7,ctr=3"),
		predictor.MustParseSpec("perceptron:n=6,k=10,tables=3,ctr=6"),
		predictor.NewUnaliased(8, 2),
	)
	before := pathCounts()
	if _, err := RunManyBranches(branches, preds, Options{Segments: 1, SkipFirstUse: true}); err != nil {
		t.Fatal(err)
	}
	after := pathCounts()
	want := [5]int64{8, 2, 1, 1, 0}
	for i, name := range []string{"group", "kernel", "stepper", "generic", "cellpar"} {
		if got := after[i] - before[i]; got != want[i] {
			t.Errorf("serial run: sim.path.%s rose by %d, want %d", name, got, want[i])
		}
	}

	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	par := []predictor.Predictor{
		predictor.MustParseSpec("tage:n=7,k=20,kmin=4,tables=4,tag=7,ctr=3"),
		predictor.MustParseSpec("perceptron:n=6,k=10,tables=3,ctr=6"),
	}
	before = pathCounts()
	if _, err := RunManyBranches(branches, par, Options{}); err != nil {
		t.Fatal(err)
	}
	after = pathCounts()
	want = [5]int64{0, 1, 1, 0, 2}
	for i, name := range []string{"group", "kernel", "stepper", "generic", "cellpar"} {
		if got := after[i] - before[i]; got != want[i] {
			t.Errorf("cell-parallel run: sim.path.%s rose by %d, want %d", name, got, want[i])
		}
	}

	// One predictor is one work unit: auto runs it on the serial
	// kernel path, exactly as Segments 1 does.
	before = pathCounts()
	if _, err := RunBranches(branches, predictor.MustParseSpec("gshare:n=10,k=8,ctr=2"), Options{}); err != nil {
		t.Fatal(err)
	}
	after = pathCounts()
	want = [5]int64{0, 1, 0, 0, 0}
	for i, name := range []string{"group", "kernel", "stepper", "generic", "cellpar"} {
		if got := after[i] - before[i]; got != want[i] {
			t.Errorf("one-predictor auto run: sim.path.%s rose by %d, want %d", name, got, want[i])
		}
	}
}

// TestTAGEKernelRunMatchesInterfaceAcrossFlushAndAgeing: a kernel-path
// TAGE run with periodic flushes, long enough that usefulness ageing
// (every 8192 updates) fires between flushes and flushes land
// mid-period, equals the NoKernel run; afterwards both predictors
// answer every probe identically, so the kernel trained the
// predictor's own storage, ageing counter included.
func TestTAGEKernelRunMatchesInterfaceAcrossFlushAndAgeing(t *testing.T) {
	branches := manyTestTrace(140000)
	const spec = "tage:n=7,k=20,kmin=4,tables=4,tag=7,ctr=3"
	viaKernel, viaIface := predictor.MustParseSpec(spec), predictor.MustParseSpec(spec)
	opts := Options{FlushEvery: 30000}
	got, err := RunBranches(branches, viaKernel, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.NoKernel = true
	want, err := RunBranches(branches, viaIface, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("kernel run %+v, interface run %+v", got, want)
	}
	if got.Flushes < 2 || got.Conditionals-got.Flushes*opts.FlushEvery <= 8192 {
		t.Fatalf("run too short to cross ageing after the last flush: %+v", got)
	}
	for i, b := range branches[:8000] {
		h := uint64(i) * 0x9E3779B97F4A7C15 >> 44
		if viaKernel.Predict(b.PC, h) != viaIface.Predict(b.PC, h) {
			t.Fatalf("post-run state differs at pc=%#x hist=%#x", b.PC, h)
		}
	}
}
