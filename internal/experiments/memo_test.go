package experiments

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"gskew/internal/obs"
	"gskew/internal/predictor"
	"gskew/internal/sim"
)

// memoTestContext is a small single-benchmark context for memo tests.
func memoTestContext() *Context {
	return &Context{Scale: 0.002, Benchmarks: []string{"groff"}, Sched: NewSched(1), Segments: 1}
}

// memoCounts reads the memo counters; callers enable obs collection.
func memoCounts() (hits, misses int64) { return mMemoHits.Value(), mMemoMisses.Value() }

// directRun is RunMany's answer for the same cell: freshly built
// predictors over the Context trace, straight through the simulator.
func directRun(t *testing.T, ctx *Context, name string, specs []predictor.Spec, opts sim.Options) []sim.Result {
	t.Helper()
	branches, err := ctx.Trace(name)
	if err != nil {
		t.Fatal(err)
	}
	preds := make([]predictor.Predictor, len(specs))
	for i, s := range specs {
		preds[i] = predictor.MustSpec(s)
	}
	res, err := sim.RunManyBranches(branches, preds, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMemoRunSpecsMatchesDirect: for every call-site shape converted to
// RunSpecs, the memoised answer — on the miss and again on the hit —
// equals a direct sim.RunManyBranches over fresh predictors.
func TestMemoRunSpecsMatchesDirect(t *testing.T) {
	hist := func(family string, n uint) []predictor.Spec {
		var out []predictor.Spec
		for _, k := range []uint{0, 4, 8, 12} {
			out = append(out, predictor.Spec{Family: family, N: n, Hist: k})
		}
		return out
	}
	shapes := []struct {
		name, trace string
		specs       []predictor.Spec
		opts        sim.Options
	}{
		{"size-sweep", "groff", []predictor.Spec{
			{Family: "gshare", N: 12, Hist: 4}, {Family: "gskewed", N: 10, Hist: 4},
			{Family: "gshare", N: 14, Hist: 4}, {Family: "gskewed", N: 12, Hist: 4}}, sim.Options{}},
		{"history-sweep", "groff", append(append(hist("gshare", 14), hist("gskewed", 12)...), hist("egskew", 12)...), sim.Options{}},
		{"fig8", "groff", []predictor.Spec{
			{Family: "assoc-lru", Entries: 256, Hist: 4},
			{Family: "gskewed", N: 8, Hist: 4},
			{Family: "gskewed", N: 8, Hist: 4, Policy: predictor.TotalUpdate}}, sim.Options{}},
		{"ablations", "groff", []predictor.Spec{
			{Family: "gskewed", Banks: 5, N: 12, Hist: 8}, {Family: "gskewed", Banks: 7, N: 12, Hist: 8},
			{Family: "gskewed", N: 12, Hist: 8, Ctr: 1}}, sim.Options{}},
		{"compare-rows", "groff", []predictor.Spec{
			specOf("pas:bht=10,local=8,n=12,ctr=2"),
			specOf("skewed-pas:bht=10,local=8,n=11,ctr=2,policy=partial"),
			specOf("agree:n=14,k=8,bias=10,ctr=2"),
			specOf("bimode:n=13,k=8,choice=11,ctr=2"),
			specOf("2bcgskew:n=12,ks=6,k=14"),
			{Family: "gskewed", N: 12, Hist: 8, SharedHyst: 1}}, sim.Options{}},
		{"shootout", "groff", []predictor.Spec{
			specOf("tage:n=9,k=20,kmin=4,tables=4,tag=8,ctr=3"),
			specOf("perceptron:n=9,k=16,tables=8,theta=44,ctr=8")}, sim.Options{}},
		{"flush", "groff", []predictor.Spec{
			{Family: "gshare", N: 14, Hist: 8}, {Family: "egskew", N: 12, Hist: 8}}, sim.Options{FlushEvery: 2000}},
		{"realwork", "algo:kmp,n=2000,seed=2", []predictor.Spec{
			specOf("bimodal:n=4,ctr=1"), specOf("bimodal:n=4,ctr=2"),
			specOf("gskewed:n=7,k=8,banks=3,ctr=2,policy=partial")}, sim.Options{}},
	}
	ctx := memoTestContext()
	for _, sh := range shapes {
		want := directRun(t, ctx, sh.trace, sh.specs, sh.opts)
		for _, pass := range []string{"miss", "hit"} {
			got, err := ctx.RunSpecs("memo/"+sh.name, sh.trace, sh.specs, sh.opts)
			if err != nil {
				t.Fatalf("%s (%s): %v", sh.name, pass, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (%s): RunSpecs %v, direct %v", sh.name, pass, got, want)
			}
		}
	}
}

// TestMemoKeySeparatesOptions: the same spec under different
// FlushEvery, HistoryBits or SkipFirstUse never shares a memo entry —
// each variant is simulated, and returns its own direct answer.
func TestMemoKeySeparatesOptions(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	ctx := memoTestContext()
	variants := []struct {
		spec predictor.Spec
		opts sim.Options
	}{
		{predictor.Spec{Family: "gshare", N: 10, Hist: 8}, sim.Options{}},
		{predictor.Spec{Family: "gshare", N: 10, Hist: 8}, sim.Options{FlushEvery: 1000}},
		{predictor.Spec{Family: "gshare", N: 10, Hist: 8}, sim.Options{HistoryBits: 4}},
		{predictor.Spec{Family: "unaliased", Hist: 4, Ctr: 2}, sim.Options{}},
		{predictor.Spec{Family: "unaliased", Hist: 4, Ctr: 2}, sim.Options{SkipFirstUse: true}},
	}
	for _, v := range variants {
		_, misses := memoCounts()
		got, err := ctx.RunSpecs("memo/opts", "groff", []predictor.Spec{v.spec}, v.opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, m := memoCounts(); m != misses+1 {
			t.Errorf("%v %+v: served from another variant's entry", v.spec, v.opts)
		}
		if want := directRun(t, ctx, "groff", []predictor.Spec{v.spec}, v.opts); got[0] != want[0] {
			t.Errorf("%v %+v: %v, direct %v", v.spec, v.opts, got[0], want[0])
		}
	}
}

// TestMemoConcurrentSingleFlight: eight goroutines issue overlapping
// spec sets — each set holds keys other sets hold too, in orders that
// make calls claim each other's keys — and every distinct key is
// simulated exactly once, nothing deadlocks, and every caller gets the
// direct answer.
func TestMemoConcurrentSingleFlight(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	ctx := memoTestContext()
	ctx.Sched = NewSched(8)
	pool := make([]predictor.Spec, 8)
	for i := range pool {
		pool[i] = predictor.Spec{Family: "gshare", N: uint(8 + i%4), Hist: uint(2 * (i / 4))}
		if i%2 == 1 {
			pool[i] = predictor.Spec{Family: "gskewed", N: uint(8 + i%4), Hist: uint(2 * (i / 4))}
		}
	}
	sets := make([][]predictor.Spec, 8)
	requested := 0
	for g := range sets {
		// Goroutine g asks for keys g, g+1 and g+3: neighbours overlap,
		// and g's first key is its predecessor's second.
		for _, d := range []int{0, 1, 3} {
			sets[g] = append(sets[g], pool[(g+d)%len(pool)])
		}
		if g%2 == 1 {
			sets[g][0], sets[g][2] = sets[g][2], sets[g][0]
		}
		requested += len(sets[g])
	}
	want := make(map[string]sim.Result)
	for _, s := range pool {
		want[s.String()] = directRun(t, ctx, "groff", []predictor.Spec{s}, sim.Options{})[0]
	}

	hits, misses := memoCounts()
	var start, done sync.WaitGroup
	start.Add(1)
	errs := make([]error, len(sets))
	for g := range sets {
		done.Add(1)
		go func(g int) {
			defer done.Done()
			start.Wait()
			got, err := ctx.RunSpecs(fmt.Sprintf("memo/g%d", g), "groff", sets[g], sim.Options{})
			if err != nil {
				errs[g] = err
				return
			}
			for i, s := range sets[g] {
				if got[i] != want[s.String()] {
					errs[g] = fmt.Errorf("goroutine %d, %v: %v, direct %v", g, s, got[i], want[s.String()])
					return
				}
			}
		}(g)
	}
	start.Done()
	finished := make(chan struct{})
	go func() { done.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(2 * time.Minute):
		t.Fatal("concurrent RunSpecs calls deadlocked")
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	h, m := memoCounts()
	if m-misses != int64(len(pool)) {
		t.Errorf("simulated %d cells, want each of %d keys exactly once", m-misses, len(pool))
	}
	if h-hits != int64(requested-len(pool)) {
		t.Errorf("%d memo hits, want %d", h-hits, requested-len(pool))
	}
}

// TestMemoFailedRunNotCached: a call that fails (an invalid spec in
// its set, or an unknown trace) releases its claims, so a later
// request for the same keys simulates them afresh and succeeds.
func TestMemoFailedRunNotCached(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	ctx := memoTestContext()
	good := predictor.Spec{Family: "gshare", N: 10, Hist: 8}
	bad := predictor.Spec{Family: "gshare", N: 40, Hist: 8} // index width out of range
	if _, err := ctx.RunSpecs("memo/bad", "groff", []predictor.Spec{good, bad}, sim.Options{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := ctx.RunSpecs("memo/notrace", "no-such-benchmark", []predictor.Spec{good}, sim.Options{}); err == nil {
		t.Fatal("unknown trace accepted")
	}
	ctx.memoMu.Lock()
	left := len(ctx.memo)
	ctx.memoMu.Unlock()
	if left != 0 {
		t.Fatalf("%d memo entries survived failed runs", left)
	}
	_, misses := memoCounts()
	got, err := ctx.RunSpecs("memo/good", "groff", []predictor.Spec{good}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, m := memoCounts(); m != misses+1 {
		t.Error("retry after a failed run was not simulated")
	}
	if want := directRun(t, ctx, "groff", []predictor.Spec{good}, sim.Options{}); got[0] != want[0] {
		t.Errorf("retry %v, direct %v", got[0], want[0])
	}
}

// TestMemoObservability: a memo hit still reports as its own cell — the
// manifest marks the hit, the stored interval curve is re-emitted under
// the hit's label, and the memo counters are published in the obs
// registry behind /debug/vars.
func TestMemoObservability(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	o := &RunObs{Intervals: 5000, Manifest: obs.NewManifest("memo-test", nil)}
	ctx := memoTestContext()
	ctx.Obs = o
	specs := []predictor.Spec{{Family: "gshare", N: 10, Hist: 8}, {Family: "bimodal", N: 10}}
	first, err := ctx.RunSpecs("exp-a/groff", "groff", specs, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := ctx.RunSpecs("exp-b/groff", "groff", specs, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("hit %v, miss %v", second, first)
	}
	cells := o.Manifest.Cells
	if len(cells) != 2 {
		t.Fatalf("%d manifest cells, want 2", len(cells))
	}
	if !reflect.DeepEqual(cells[0].MemoHits, []bool{false, false}) || !reflect.DeepEqual(cells[1].MemoHits, []bool{true, true}) {
		t.Errorf("manifest memo marks %v, %v", cells[0].MemoHits, cells[1].MemoHits)
	}
	series := o.Series()
	if len(series) != 4 {
		t.Fatalf("%d curves, want 4 (a hit re-emits its curve)", len(series))
	}
	for i, s := range series[2:] {
		orig := series[i]
		if want := "exp-b/groff/" + specs[i].String(); s.Label != want {
			t.Errorf("hit curve labelled %q, want %q", s.Label, want)
		}
		if !reflect.DeepEqual(s.Points, orig.Points) || s.Every != orig.Every {
			t.Errorf("hit curve %s differs from the simulated one", s.Label)
		}
		if conds, mis := s.Totals(); conds != second[i].Conditionals || mis != second[i].Mispredicts {
			t.Errorf("hit curve totals %d/%d, result %v", conds, mis, second[i])
		}
	}
	snap := obs.Default().Snapshot()
	for _, name := range []string{"experiments.memo.hits", "experiments.memo.misses"} {
		if _, ok := snap[name]; !ok {
			t.Errorf("%s missing from the obs registry", name)
		}
	}
}
