package sim

import (
	"runtime"
	"runtime/debug"
	"testing"

	"gskew/internal/kernel"
	"gskew/internal/obs"
	"gskew/internal/predictor"
	"gskew/internal/trace"
)

// segOptsCases are the adversarial segmentation shapes: forced serial,
// small K, K with a warm-up window smaller than typical correlation,
// K far beyond the branch count (exercises the clamp), and a warm-up
// window longer than a whole segment.
func segOptsCases() map[string]Options {
	return map[string]Options{
		"k2":        {Segments: 2},
		"k5-w64":    {Segments: 5, WarmBranches: 64},
		"k-huge":    {Segments: 1 << 20},
		"w-huge":    {Segments: 3, WarmBranches: 1 << 20},
		"k64-small": {Segments: 64, WarmBranches: 8},
	}
}

// TestRunSegmentedMatchesSerial is the bit-identity contract of the
// segmented engine: for every predictor family (including those that
// cannot take the path and must degrade), with and without periodic
// flushes, every segmentation shape must reproduce the serial Result
// exactly AND leave the predictor in the serially-trained state.
func TestRunSegmentedMatchesSerial(t *testing.T) {
	branches := manyTestTrace(6000)
	for _, flush := range []int{0, 97, 1000} {
		for segName, segOpts := range segOptsCases() {
			for name, build := range families() {
				opts := segOpts
				opts.FlushEvery = flush
				t.Run(name+"/"+segName+"/flush="+itoa(flush), func(t *testing.T) {
					serialP := build()
					want, err := RunBranches(branches, serialP, Options{Segments: 1, FlushEvery: flush})
					if err != nil {
						t.Fatal(err)
					}
					segP := build()
					got, err := Run(trace.NewSliceSource(branches), segP, opts)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("segmented %+v, serial %+v", got, want)
					}
					// The originals must hold the serially-trained state,
					// not just the right counts.
					probePredictors(t, serialP, segP)
				})
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// probePredictors asserts two predictors give identical predictions
// over a grid of (pc, history) probes.
func probePredictors(t *testing.T, want, got predictor.Predictor) {
	t.Helper()
	state := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 2000; i++ {
		state ^= state >> 12
		state ^= state << 25
		state ^= state >> 27
		r := state * 0x2545f4914f6cdd1d
		pc := 0x400000 + (r>>8)%257*4
		h := r & 0x3fff
		if want.Predict(pc, h) != got.Predict(pc, h) {
			t.Fatalf("post-run state differs at probe %d (pc=%#x hist=%#x)", i, pc, h)
		}
	}
}

// TestRunSegmentedManyMatchesSerial runs a mixed multi-cell sweep —
// eligible and ineligible families together — through the forced
// segmented path and checks every cell against its sequential run.
func TestRunSegmentedManyMatchesSerial(t *testing.T) {
	branches := manyTestTrace(8000)
	fams := families()
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	for _, opts := range []Options{
		{Segments: 4, FlushEvery: 513},
		{Segments: 7, WarmBranches: 128},
	} {
		want := make([]Result, len(names))
		for i, name := range names {
			res, err := RunBranches(branches, fams[name](), Options{Segments: 1, FlushEvery: opts.FlushEvery})
			if err != nil {
				t.Fatal(err)
			}
			want[i] = res
		}
		preds := make([]predictor.Predictor, len(names))
		for i, name := range names {
			preds[i] = fams[name]()
		}
		got, err := RunSegmented(trace.NewSliceSource(branches), preds, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range names {
			if got[i] != want[i] {
				t.Errorf("%s: segmented = %+v, serial = %+v", name, got[i], want[i])
			}
		}
	}
}

// TestRunSegmentedPretrained: segment replicas start cold, so a
// pre-trained original exercises the convergence check (and, when the
// warm-up cannot reproduce the trained state, the serial replay).
func TestRunSegmentedPretrained(t *testing.T) {
	warmup := manyTestTrace(3000)
	branches := manyTestTrace(6000)
	for name, build := range families() {
		t.Run(name, func(t *testing.T) {
			serialP, segP := build(), build()
			for _, p := range []predictor.Predictor{serialP, segP} {
				if _, err := RunBranches(warmup, p, Options{Segments: 1}); err != nil {
					t.Fatal(err)
				}
			}
			want, err := RunBranches(branches, serialP, Options{Segments: 1})
			if err != nil {
				t.Fatal(err)
			}
			// Tiny warm-up window: segment 1's replica cannot see the
			// pre-training, forcing the check to do its job.
			got, err := Run(trace.NewSliceSource(branches), segP, Options{Segments: 3, WarmBranches: 16})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("segmented %+v, serial %+v", got, want)
			}
			probePredictors(t, serialP, segP)
		})
	}
}

// TestRunSegmentedAuto: with multiple procs and a long materialised
// trace, Segments=0 takes the segmented path automatically, still
// bit-identically.
func TestRunSegmentedAuto(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	obs.Enable()
	defer obs.Disable()
	branches := manyTestTrace(autoMinBranches + 5000)
	want, err := RunBranches(branches, predictor.MustSpec(predictor.Spec{Family: "gshare", N: 10, Hist: 8, Ctr: 2}), Options{Segments: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := mSegRuns.Value()
	got, err := RunBranches(branches, predictor.MustSpec(predictor.Spec{Family: "gshare", N: 10, Hist: 8, Ctr: 2}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("auto-segmented %+v, serial %+v", got, want)
	}
	if mSegRuns.Value() == before {
		t.Error("auto gate did not take the segmented path")
	}
}

// TestRunSegmentedGenericSource: a non-slice source is staged through
// the batch reader; explicit Segments must still match serial.
func TestRunSegmentedGenericSource(t *testing.T) {
	branches := manyTestTrace(5000)
	want, err := RunBranches(branches, predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 8, Ctr: 2}), Options{Segments: 1, FlushEvery: 777})
	if err != nil {
		t.Fatal(err)
	}
	src := &chanSource{branches: branches}
	got, err := Run(src, predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 8, Ctr: 2}), Options{Segments: 6, FlushEvery: 777})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("segmented over generic source %+v, serial %+v", got, want)
	}
}

// TestRunSegmentedNoReconcileDiverges proves the convergence check is
// load-bearing: a trace built so a cold warm-up CANNOT reproduce the
// exact counter state at a segment boundary must yield a wrong count
// when reconciliation is skipped — and the right one when it runs.
func TestRunSegmentedNoReconcileDiverges(t *testing.T) {
	branches := segKillerTrace()
	mk := func() predictor.Predictor { return predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 4, Ctr: 2}) }
	want, err := RunBranches(branches, mk(), Options{Segments: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Segments: 4, WarmBranches: 16}
	honest, err := RunSegmented(trace.NewSliceSource(branches), []predictor.Predictor{mk()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if honest[0] != want {
		t.Fatalf("honest segmented %+v, serial %+v", honest[0], want)
	}
	faulty, err := RunSegmentedNoReconcile(trace.NewSliceSource(branches), []predictor.Predictor{mk()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if faulty[0].Mispredicts == want.Mispredicts {
		t.Fatalf("skipping reconciliation did not diverge (mis=%d); the planted fault is toothless",
			want.Mispredicts)
	}
}

// segKillerTrace defeats speculative warm-up by construction: a long
// saturating prefix (counters pinned at 3) followed by a strict
// alternation starting not-taken. The exact counter oscillates 3<->2
// through the alternation (mispredicting only the not-taken steps);
// a cold replica warmed only inside the alternation oscillates 2<->1
// (mispredicting every step), and no bounded warm-up that starts at
// the weakly-taken reset state can recover the saturated hysteresis.
func segKillerTrace() []trace.Branch {
	const pc = 5
	branches := make([]trace.Branch, 0, 1041)
	for i := 0; i < 640; i++ {
		branches = append(branches, trace.Branch{PC: pc, Taken: true, Kind: trace.Conditional})
	}
	for i := 0; i < 401; i++ {
		branches = append(branches, trace.Branch{PC: pc, Taken: i%2 == 1, Kind: trace.Conditional})
	}
	return branches
}

// TestSegmentSteps: the steps-level entry point used by predict
// sessions must match the serial kernel over the same staged block.
func TestSegmentSteps(t *testing.T) {
	branches := manyTestTrace(20000)
	const hist = 8
	steps := make([]kernel.Step, 0, len(branches))
	ghr := uint64(0)
	for i := range branches {
		b := &branches[i]
		if b.Kind == trace.Conditional {
			steps = append(steps, kernel.Step{PC: b.PC, Hist: ghr, Taken: b.Taken})
		}
		if b.Taken {
			ghr = (ghr<<1 | 1) & (1<<hist - 1)
		} else {
			ghr = ghr << 1 & (1<<hist - 1)
		}
	}
	serialP := predictor.MustSpec(predictor.Spec{Family: "gshare", N: 10, Hist: hist, Ctr: 2})
	serialK, ok := kernel.Compile(serialP, hist)
	if !ok {
		t.Fatal("gshare did not compile")
	}
	want := serialK.StepBatch(steps)
	kernel.Invalidate(serialP)

	segP := predictor.MustSpec(predictor.Spec{Family: "gshare", N: 10, Hist: hist, Ctr: 2})
	got, ok := SegmentSteps(segP, hist, steps, 5, 256)
	if !ok {
		t.Fatal("SegmentSteps refused an eligible predictor")
	}
	kernel.Invalidate(segP)
	if got != want {
		t.Fatalf("SegmentSteps counted %d mispredicts, serial kernel %d", got, want)
	}
	probePredictors(t, serialP, segP)

	if _, ok := SegmentSteps(predictor.NewUnaliased(6, 2), 6, steps, 4, 256); ok {
		t.Error("SegmentSteps accepted a predictor without a compiled kernel")
	}
}

// TestRunManyBitsliced pins the grouping policy: RunMany forms a
// bitsliced group only from lanes that share one index function (the
// transposed uniform layout). A mixed-geometry sweep of groupable
// families must form none; replicated and partial/total-mixed
// same-geometry sweeps must form one group per shape. Either way the
// results must match the same sweep with grouping disabled, cell for
// cell, including under flushes (lanes alias predictor storage, so
// Reset must be visible to the group).
func TestRunManyBitsliced(t *testing.T) {
	branches := manyTestTrace(9000)
	mixed := func() []predictor.Predictor {
		var preds []predictor.Predictor
		for n := uint(6); n < 12; n++ {
			preds = append(preds, predictor.MustSpec(predictor.Spec{Family: "gshare", N: n, Hist: 6, Ctr: 2}))
			preds = append(preds, predictor.MustSpec(predictor.Spec{Family: "bimodal", N: n, Ctr: 2}))
		}
		for bb := uint(5); bb < 9; bb++ {
			preds = append(preds, predictor.MustGSkewed(predictor.Config{BankBits: bb, HistoryBits: 6}))
			preds = append(preds, predictor.MustGSkewed(predictor.Config{
				BankBits: bb, HistoryBits: 6, Enhanced: true,
			}))
		}
		return preds
	}
	uniform := func() []predictor.Predictor {
		var preds []predictor.Predictor
		for i := 0; i < 10; i++ {
			preds = append(preds, predictor.MustSpec(predictor.Spec{Family: "gshare", N: 9, Hist: 6, Ctr: 2}))
			pol := predictor.PartialUpdate
			if i%2 == 1 {
				pol = predictor.TotalUpdate
			}
			preds = append(preds, predictor.MustGSkewed(predictor.Config{BankBits: 6, HistoryBits: 6, Policy: pol}))
		}
		return preds
	}
	// Oddballs that must stay scalar inside either sweep.
	oddballs := func(preds []predictor.Predictor) []predictor.Predictor {
		return append(preds,
			predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 8, Ctr: 1}),
			predictor.MustSpec(predictor.Spec{Family: "2bcgskew", N: 7, HistShort: 3, Hist: 9}))
	}
	obs.Enable()
	defer obs.Disable()
	for _, tc := range []struct {
		name          string
		mk            func() []predictor.Predictor
		groups, lanes int64
	}{
		{"mixed", func() []predictor.Predictor { return oddballs(mixed()) }, 0, 0},
		{"uniform", func() []predictor.Predictor { return oddballs(uniform()) }, 2, 20},
		// The mixed half's gshare n=9 and partial gskewed n=6 cells share
		// the uniform shapes, so each group absorbs one more lane.
		{"uniform+mixed", func() []predictor.Predictor { return oddballs(append(uniform(), mixed()...)) }, 2, 22},
	} {
		for _, flush := range []int{0, 301} {
			groups, lanes := mGroups.Value(), mGroupLanes.Value()
			got, err := RunManyBranches(branches, tc.mk(), Options{FlushEvery: flush, Segments: 1})
			if err != nil {
				t.Fatal(err)
			}
			if g, l := mGroups.Value()-groups, mGroupLanes.Value()-lanes; g != tc.groups || l != tc.lanes {
				t.Errorf("%s flush=%d: formed %d groups over %d lanes, want %d over %d",
					tc.name, flush, g, l, tc.groups, tc.lanes)
			}
			want, err := RunManyBranches(branches, tc.mk(), Options{FlushEvery: flush, Segments: 1, NoBitslice: true})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s flush=%d cell %d: bitsliced %+v, scalar %+v", tc.name, flush, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSegmentedSteadyStateAllocs pins the steps-buffer pool: a warm
// segmented run must not allocate per staged branch (the buffer used
// to be freshly made each run — kernel.Step is 24 bytes, the constant
// per-branch cost BENCH_sim.json once reported for SimSegmented). The
// test gates both the allocation count (a constant per run: replicas,
// marks, snapshots, results) and the allocated bytes per branch. GC is
// disabled during measurement so sync.Pool cannot be drained under us.
func TestSegmentedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is inflated under the race detector")
	}
	branches := manyTestTrace(1 << 17)
	preds := []predictor.Predictor{predictor.MustSpec(predictor.Spec{Family: "gshare", N: 8, Hist: 6, Ctr: 2})}
	src := trace.NewSliceSource(branches)
	opts := Options{Segments: 4}
	run := func() {
		src.Reset()
		if _, err := RunMany(src, preds, opts); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: seeds the step pool and compiled-kernel caches
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()

	const rounds = 5
	allocs := testing.AllocsPerRun(rounds, run)
	if allocs > 256 {
		t.Errorf("segmented steady state: %.0f allocations per run, want a small constant (<= 256)", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perBranch := float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds*len(branches))
	if perBranch > 2 {
		t.Errorf("segmented steady state allocates %.2f B per branch, want < 2 (steps buffer not pooled?)", perBranch)
	}
}
