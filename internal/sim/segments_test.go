package sim

import (
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"

	"gskew/internal/obs"
	"gskew/internal/predictor"
	"gskew/internal/trace"
)

// The tests in this file compare the two Options.Segments modes that
// run — auto (0) and serial (1) — per predictor family and sweep
// shape, and pin what auto does with a single predictor.

// sweepShape places one family's cell in an automatic sweep: cells is
// the sweep's width (the family plus cells-1 companions) and warm the
// number of branches every cell is trained on before the run, so the
// cell-parallel drain must carry trained state, not a cold table.
type sweepShape struct{ cells, warm int }

// sweepShapes are the adversarial sweep shapes: the narrowest sweep,
// a few cells over a short warm-up, a sweep wider than any worker pool
// (many cells per worker, some forming bitsliced groups), a warm-up
// longer than the measured trace, and 64 cells over a tiny warm-up.
func sweepShapes() map[string]sweepShape {
	return map[string]sweepShape{
		"k2":        {cells: 2},
		"k5-w64":    {cells: 5, warm: 64},
		"k-huge":    {cells: 40},
		"w-huge":    {cells: 3, warm: 1 << 14},
		"k64-small": {cells: 64, warm: 8},
	}
}

// companions returns n fresh kernel-family cells of mixed geometry
// (bimodal, gshare, gselect, gskewed under both policies, e-gskew and
// 2Bc-gskew); wide sweeps repeat shapes, so some cells form bitsliced
// groups.
func companions(n int) []predictor.Predictor {
	preds := make([]predictor.Predictor, n)
	for i := range preds {
		preds[i] = fuzzCell(byte(i*40 + i%6))
	}
	return preds
}

// pretrain trains every predictor serially on warm branches.
func pretrain(t *testing.T, preds []predictor.Predictor, warm int) {
	t.Helper()
	if warm == 0 {
		return
	}
	warmup := manyTestTrace(warm)
	for _, p := range preds {
		if _, err := RunBranches(warmup, p, Options{Segments: 1}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunSegmentedMatchesSerial is the per-family bit-identity
// contract of the automatic mode: every predictor family (including
// those that cannot drain cell-parallel and must stay serial), with
// and without periodic flushes, placed in every sweep shape, must
// reproduce the serial Results exactly AND leave each predictor in
// the serially trained state. Auto must drain cell-parallel exactly
// when no two cells can share state.
func TestRunSegmentedMatchesSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	obs.Enable()
	defer obs.Disable()
	branches := manyTestTrace(6000)
	for _, flush := range []int{0, 97, 1000} {
		for shapeName, shape := range sweepShapes() {
			for name, build := range families() {
				t.Run(name+"/"+shapeName+"/flush="+strconv.Itoa(flush), func(t *testing.T) {
					mk := func() []predictor.Predictor {
						preds := append([]predictor.Predictor{build()}, companions(shape.cells-1)...)
						pretrain(t, preds, shape.warm)
						return preds
					}
					serialP := mk()
					want, err := RunManyBranches(branches, serialP, Options{Segments: 1, FlushEvery: flush})
					if err != nil {
						t.Fatal(err)
					}
					autoP := mk()
					before := mParRuns.Value()
					got, err := RunManyBranches(branches, autoP, Options{FlushEvery: flush})
					if err != nil {
						t.Fatal(err)
					}
					if ran, safe := mParRuns.Value() != before, cellParallelSafe(autoP); ran != safe {
						t.Errorf("cell-parallel ran = %v, want %v", ran, safe)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("cell %d: auto %+v, serial %+v", i, got[i], want[i])
						}
					}
					// The predictors must hold the serially trained state,
					// not just the right counts.
					for i := range serialP {
						probePredictors(t, serialP[i], autoP[i])
					}
				})
			}
		}
	}
}

// TestRunSegmentedManyMatchesSerial runs a mixed multi-cell sweep —
// every family together, with and without a hybrid that forces the
// serial drain — through the automatic path and checks every cell
// against its own sequential single-predictor Run.
func TestRunSegmentedManyMatchesSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	branches := manyTestTrace(8000)
	for _, tc := range []struct {
		name string
		opts Options
		warm int
	}{
		{"flush", Options{FlushEvery: 513}, 0},
		{"warm", Options{}, 128},
	} {
		for _, par := range []bool{true, false} {
			fams := families()
			names := make([]string, 0, len(fams))
			for name := range fams {
				if par && name == "hybrid" {
					continue
				}
				names = append(names, name)
			}
			want := make([]Result, len(names))
			for i, name := range names {
				p := fams[name]()
				pretrain(t, []predictor.Predictor{p}, tc.warm)
				res, err := RunBranches(branches, p, Options{Segments: 1, FlushEvery: tc.opts.FlushEvery})
				if err != nil {
					t.Fatal(err)
				}
				want[i] = res
			}
			preds := make([]predictor.Predictor, len(names))
			for i, name := range names {
				preds[i] = fams[name]()
			}
			pretrain(t, preds, tc.warm)
			got, err := RunManyBranches(branches, preds, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, name := range names {
				if got[i] != want[i] {
					t.Errorf("%s cell-parallel=%v %s: auto = %+v, sequential = %+v", tc.name, par, name, got[i], want[i])
				}
			}
		}
	}
}

// TestRunSegmentedPretrained: a cell trained before the run must
// continue from that state in an automatic sweep, for every family.
func TestRunSegmentedPretrained(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	branches := manyTestTrace(6000)
	for name, build := range families() {
		t.Run(name, func(t *testing.T) {
			mk := func() []predictor.Predictor {
				preds := append([]predictor.Predictor{build()}, companions(3)...)
				pretrain(t, preds, 3000)
				return preds
			}
			serialP, autoP := mk(), mk()
			want, err := RunManyBranches(branches, serialP, Options{Segments: 1})
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunManyBranches(branches, autoP, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("cell %d: auto %+v, serial %+v", i, got[i], want[i])
				}
			}
			probePredictors(t, serialP[0], autoP[0])
		})
	}
}

// TestRunSegmentedAuto: auto mode with one predictor is the serial
// run. A single predictor over a long materialised trace on a
// multi-core host runs bit-identically to Segments 1, trains the same
// state and starts no cell-parallel drain.
func TestRunSegmentedAuto(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	obs.Enable()
	defer obs.Disable()
	branches := manyTestTrace(1<<16 + 5000)
	mk := func() predictor.Predictor {
		return predictor.MustSpec(predictor.Spec{Family: "gshare", N: 10, Hist: 8, Ctr: 2})
	}
	serialP, autoP := mk(), mk()
	want, err := RunBranches(branches, serialP, Options{Segments: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := mParRuns.Value()
	got, err := RunBranches(branches, autoP, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("auto %+v, serial %+v", got, want)
	}
	if d := mParRuns.Value() - before; d != 0 {
		t.Errorf("one-predictor auto run drained cell-parallel (%d runs)", d)
	}
	probePredictors(t, serialP, autoP)
}

// TestRunSegmentedGenericSource: a non-slice source is staged through
// the batch reader; an automatic sweep over it must match the serial
// run over the same branches in memory, under flushes that do not
// fall on block boundaries.
func TestRunSegmentedGenericSource(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	branches := manyTestTrace(5000)
	mk := func() []predictor.Predictor {
		return append([]predictor.Predictor{predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 8, Ctr: 2})}, companions(5)...)
	}
	want, err := RunManyBranches(branches, mk(), Options{Segments: 1, FlushEvery: 777})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunMany(&chanSource{branches: branches}, mk(), Options{FlushEvery: 777})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d: auto over generic source %+v, serial %+v", i, got[i], want[i])
		}
	}
}

// TestSegmentedSteadyStateAllocs pins the staging buffers: a warm
// automatic run of one predictor must not allocate per staged branch
// (kernel.Step is 24 bytes, so a per-run steps buffer would show as
// a constant per-branch cost). The test gates both the allocation
// count (a constant per run) and the allocated bytes per branch. GC is
// disabled during measurement so a sync.Pool cannot be drained under
// us.
func TestSegmentedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is inflated under the race detector")
	}
	branches := manyTestTrace(1 << 17)
	preds := []predictor.Predictor{predictor.MustSpec(predictor.Spec{Family: "gshare", N: 8, Hist: 6, Ctr: 2})}
	src := trace.NewSliceSource(branches)
	run := func() {
		src.Reset()
		if _, err := RunMany(src, preds, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: seeds the buffer pools and compiled-kernel caches
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()

	const rounds = 5
	if allocs := testing.AllocsPerRun(rounds, run); allocs > 256 {
		t.Errorf("auto steady state: %.0f allocations per run, want a small constant (<= 256)", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perBranch := float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds*len(branches))
	if perBranch > 2 {
		t.Errorf("auto steady state allocates %.2f B per branch, want < 2 (steps buffer not pooled?)", perBranch)
	}
}
