package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"gskew/internal/obs"
	"gskew/internal/predictor"
	"gskew/internal/trace"
)

func condBr(pc uint64, taken bool) trace.Branch {
	return trace.Branch{PC: pc, Taken: taken, Kind: trace.Conditional}
}

func uncondBr(pc uint64) trace.Branch {
	return trace.Branch{PC: pc, Taken: true, Kind: trace.Unconditional}
}

func TestRunCountsOnlyConditionals(t *testing.T) {
	branches := []trace.Branch{
		condBr(1, true),
		uncondBr(2),
		condBr(1, true),
		uncondBr(3),
		uncondBr(4),
	}
	p := predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 4, Ctr: 2})
	res, err := RunBranches(branches, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Conditionals != 2 || res.Unconditionals != 3 {
		t.Errorf("cond=%d uncond=%d", res.Conditionals, res.Unconditionals)
	}
	// Bimodal starts weakly-taken; both taken branches predicted right.
	if res.Mispredicts != 0 {
		t.Errorf("Mispredicts = %d", res.Mispredicts)
	}
}

func TestRunTrainsPredictor(t *testing.T) {
	// A single always-not-taken branch: the weakly-taken 2-bit counter
	// mispredicts the first two times, then locks on.
	var branches []trace.Branch
	for i := 0; i < 10; i++ {
		branches = append(branches, condBr(0x40, false))
	}
	p := predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 4, Ctr: 2})
	res, err := RunBranches(branches, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mispredicts != 1 {
		t.Errorf("Mispredicts = %d, want 1 (weak-taken start: one miss)", res.Mispredicts)
	}
	if res.MissRate() != 0.1 {
		t.Errorf("MissRate = %v", res.MissRate())
	}
	if res.MissPercent() != 10 {
		t.Errorf("MissPercent = %v", res.MissPercent())
	}
}

func TestUnconditionalsEnterHistory(t *testing.T) {
	// A conditional branch whose outcome equals "was the previous
	// event an unconditional branch". With history the pattern is
	// learnable; a pattern of alternating uncond presence makes
	// gshare-with-history beat bimodal.
	var branches []trace.Branch
	for i := 0; i < 3000; i++ {
		if i%2 == 0 {
			branches = append(branches, uncondBr(0x999))
			branches = append(branches, condBr(0x40, true))
		} else {
			branches = append(branches, condBr(0x50, false)) // noise bit in history
			branches = append(branches, condBr(0x40, false))
		}
	}
	withHist := predictor.MustSpec(predictor.Spec{Family: "gshare", N: 10, Hist: 4, Ctr: 2})
	resH, err := RunBranches(branches, withHist, Options{})
	if err != nil {
		t.Fatal(err)
	}
	noHist := predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 10, Ctr: 2})
	resB, err := RunBranches(branches, noHist, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resH.Mispredicts >= resB.Mispredicts {
		t.Errorf("history-aware predictor (%d) should beat bimodal (%d) on history-determined outcomes",
			resH.Mispredicts, resB.Mispredicts)
	}
	// And the history must contain the unconditional event: with k=1
	// (only the immediately preceding event), outcome of 0x40 equals
	// that bit exactly.
	tiny := predictor.MustSpec(predictor.Spec{Family: "gshare", N: 6, Hist: 1, Ctr: 2})
	resT, err := RunBranches(branches, tiny, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rate := resT.MissRate(); rate > 0.02 {
		t.Errorf("1-bit-history gshare rate = %.3f; unconditionals apparently not in history", rate)
	}
}

func TestSkipFirstUse(t *testing.T) {
	branches := []trace.Branch{
		condBr(1, false), // first use: excluded
		condBr(1, false), // counted, predicted correctly (trained NT)
		condBr(2, true),  // first use: excluded
		condBr(1, false),
	}
	// History length 0 keys substreams by address alone, so the
	// expected first-use count is exactly one per distinct PC.
	u := predictor.NewUnaliased(0, 2)
	res, err := RunBranches(branches, u, Options{SkipFirstUse: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstUses != 2 {
		t.Errorf("FirstUses = %d, want 2", res.FirstUses)
	}
	if res.Mispredicts != 0 {
		t.Errorf("Mispredicts = %d, want 0", res.Mispredicts)
	}
	if res.Conditionals != 4 {
		t.Errorf("Conditionals = %d (first uses stay in the denominator)", res.Conditionals)
	}
}

func TestSkipFirstUseNoTracker(t *testing.T) {
	// Predictors without first-use tracking are counted normally.
	branches := []trace.Branch{condBr(1, false), condBr(1, false)}
	p := predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 4, Ctr: 2})
	res, err := RunBranches(branches, p, Options{SkipFirstUse: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstUses != 0 {
		t.Errorf("FirstUses = %d for a non-tracking predictor", res.FirstUses)
	}
	if res.Mispredicts != 1 {
		t.Errorf("Mispredicts = %d", res.Mispredicts)
	}
}

func TestHistoryBitsOverride(t *testing.T) {
	// The override shortens the runner's history register; a predictor
	// configured for a longer history then sees fewer distinct history
	// values, collapsing substreams.
	var branches []trace.Branch
	for i := 0; i < 60; i++ {
		branches = append(branches, condBr(7, (i*i+i/3)%3 == 0))
	}
	u := predictor.NewUnaliased(8, 2)
	if _, err := RunBranches(branches, u, Options{}); err != nil {
		t.Fatal(err)
	}
	u2 := predictor.NewUnaliased(8, 2)
	if _, err := RunBranches(branches, u2, Options{HistoryBits: 2}); err != nil {
		t.Fatal(err)
	}
	if u2.Substreams() > 4 {
		t.Errorf("2-bit override should allow at most 4 substreams, got %d", u2.Substreams())
	}
	if u2.Substreams() >= u.Substreams() {
		t.Errorf("override did not shorten history: %d vs %d substreams",
			u2.Substreams(), u.Substreams())
	}
}

func TestResultString(t *testing.T) {
	r := Result{Conditionals: 200, Mispredicts: 10}
	if !strings.Contains(r.String(), "5.00%") {
		t.Errorf("String() = %q", r.String())
	}
	var zero Result
	if zero.MissRate() != 0 {
		t.Error("zero result MissRate")
	}
}

func TestCompare(t *testing.T) {
	var branches []trace.Branch
	for i := 0; i < 100; i++ {
		branches = append(branches, condBr(uint64(i%7), i%3 == 0))
	}
	preds := []predictor.Predictor{
		predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 6, Ctr: 2}),
		predictor.MustSpec(predictor.Spec{Family: "gshare", N: 6, Hist: 4, Ctr: 2}),
	}
	results, err := Compare(branches, preds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.Conditionals != 100 {
			t.Errorf("predictor %d saw %d conditionals", i, r.Conditionals)
		}
	}
}

// TestRunRejectsBadKind places an invalid record first, in the middle
// of a block, after a full 4096-step block has drained, and among the
// unconditionals that follow a flush boundary, and requires the error
// on the serial, auto and cell-parallel paths, from a slice and
// from a streaming source.
func TestRunRejectsBadKind(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	obs.Enable()
	defer obs.Disable()
	placements := []struct {
		name  string
		at    int // index of the bad record
		flush int
	}{
		{"first", 0, 0},
		{"mid-block", 2000, 0},
		{"after-drain", batchSize + 100, 0},
		{"after-flush-boundary", 101, 100},
	}
	for _, pl := range placements {
		for _, kind := range []trace.Kind{2, 9, 255} {
			// All conditionals, except one unconditional right after the
			// flush boundary so the bad record sits in the run of
			// unconditionals a pending flush skips over.
			branches := make([]trace.Branch, 2*batchSize)
			for i := range branches {
				branches[i] = condBr(uint64(i%37), i%3 != 0)
			}
			if pl.flush > 0 {
				branches[pl.flush] = uncondBr(0x99)
			}
			branches[pl.at] = trace.Branch{PC: 1, Kind: kind}
			want := fmt.Sprintf("sim: unknown branch kind %d", kind)
			check := func(path string, err error) {
				t.Helper()
				if err == nil || err.Error() != want {
					t.Errorf("%s, kind %d at %d, %s: err %v, want %q", pl.name, kind, pl.at, path, err, want)
				}
			}
			one := func() []predictor.Predictor {
				return []predictor.Predictor{predictor.MustSpec(predictor.Spec{Family: "gshare", N: 8, Hist: 6, Ctr: 2})}
			}
			for _, segments := range []int{1, 0} {
				opts := Options{Segments: segments, FlushEvery: pl.flush}
				_, err := RunMany(trace.NewSliceSource(branches), one(), opts)
				check(fmt.Sprintf("segments %d, slice", segments), err)
				_, err = RunMany(&chanSource{branches: branches}, one(), opts)
				check(fmt.Sprintf("segments %d, stream", segments), err)
			}
			before := mParRuns.Value()
			_, err := RunManyBranches(branches, cellParCases()["families"].mk(), Options{FlushEvery: pl.flush})
			check("cell-parallel", err)
			if mParRuns.Value() == before {
				t.Fatalf("%s: multi-predictor run did not take the cell-parallel path", pl.name)
			}
		}
	}
}

func TestFlushEvery(t *testing.T) {
	// A stable not-taken branch: without flushes the 2-bit counter
	// locks on after two outcomes; flushing every 4 conditionals
	// re-incurs the two warm-up misses each window.
	var branches []trace.Branch
	for i := 0; i < 40; i++ {
		branches = append(branches, condBr(0x10, false))
	}
	noFlush, err := RunBranches(branches, predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 4, Ctr: 2}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	flushed, err := RunBranches(branches, predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 4, Ctr: 2}), Options{FlushEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if noFlush.Flushes != 0 {
		t.Errorf("Flushes = %d without FlushEvery", noFlush.Flushes)
	}
	if flushed.Flushes != 9 {
		t.Errorf("Flushes = %d, want 9 (every 4 of 40, not before the first)", flushed.Flushes)
	}
	// 1 warm-up miss initially (weak-taken start: misses once), then
	// 1 per flushed window.
	if flushed.Mispredicts != noFlush.Mispredicts+9 {
		t.Errorf("flushed mispredicts = %d, want %d", flushed.Mispredicts, noFlush.Mispredicts+9)
	}
}
