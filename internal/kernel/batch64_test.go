package kernel

import (
	"testing"

	"gskew/internal/predictor"
	"gskew/internal/rng"
)

// laneCase builds one lane of a bitsliced group; hist is the runner
// history width for that lane.
type laneCase struct {
	hist uint
	mk   func() predictor.Predictor
}

func singleLanes() []laneCase {
	return []laneCase{
		{0, func() predictor.Predictor { return predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 8, Ctr: 2}) }},
		{0, func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 10, Ctr: 2})
		}},
		{6, func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "gshare", N: 10, Hist: 6, Ctr: 2})
		}},
		{10, func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "gshare", N: 10, Hist: 10, Ctr: 2})
		}},
		{14, func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "gshare", N: 6, Hist: 14, Ctr: 2})
		}},
		{4, func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "gselect", N: 10, Hist: 4, Ctr: 2})
		}},
		{12, func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "gselect", N: 8, Hist: 12, Ctr: 2})
		}},
		{10, func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "gselect", N: 6, Hist: 10, Ctr: 2})
		}},
		{8, func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "gshare", N: 9, Hist: 8, Ctr: 2})
		}},
	}
}

func skewLanes() []laneCase {
	return []laneCase{
		{8, func() predictor.Predictor {
			return predictor.MustGSkewed(predictor.Config{BankBits: 6, HistoryBits: 8})
		}},
		{8, func() predictor.Predictor {
			return predictor.MustGSkewed(predictor.Config{
				BankBits: 6, HistoryBits: 8, Policy: predictor.TotalUpdate,
			})
		}},
		{10, func() predictor.Predictor {
			return predictor.MustGSkewed(predictor.Config{BankBits: 7, HistoryBits: 10, Enhanced: true})
		}},
		{10, func() predictor.Predictor {
			return predictor.MustGSkewed(predictor.Config{BankBits: 7, HistoryBits: 10})
		}},
		{6, func() predictor.Predictor {
			return predictor.MustGSkewed(predictor.Config{
				BankBits: 5, HistoryBits: 6, Enhanced: true, Policy: predictor.TotalUpdate,
			})
		}},
	}
}

func mkSteps(n int, seed uint64) []Step {
	steps := make([]Step, n)
	r := rng.NewXoshiro256(seed)
	hist := uint64(0)
	for i := range steps {
		taken := r.Uint64()&3 != 0
		steps[i] = Step{PC: r.Uint64() & 0x3fff, Hist: hist, Taken: taken}
		hist = hist<<1 | b2u(taken)
	}
	return steps
}

// buildGroup replicates lanes round-robin up to want lanes and returns
// the group plus scalar twins compiled from identical predictors.
func buildGroup(t *testing.T, lanes []laneCase, want int) (*Group64, []Kernel) {
	t.Helper()
	preds := make([]predictor.Predictor, want)
	hists := make([]uint, want)
	twins := make([]Kernel, want)
	for i := 0; i < want; i++ {
		lc := lanes[i%len(lanes)]
		preds[i] = lc.mk()
		hists[i] = lc.hist
		tw, ok := Compile(lc.mk(), lc.hist)
		if !ok {
			t.Fatalf("lane %d scalar twin did not compile", i)
		}
		twins[i] = tw
	}
	g, ok := CompileGroup64(preds, hists)
	if !ok {
		t.Fatalf("CompileGroup64 rejected %d eligible lanes", want)
	}
	return g, twins
}

// TestGroup64MatchesScalar: a bitsliced group over a shared step block
// must produce, per lane, the same mispredict count and identical
// final counter state as that lane's scalar kernel.
func TestGroup64MatchesScalar(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lanes []laneCase
		want  int
	}{
		{"single-9", singleLanes(), 9},
		{"single-64", singleLanes(), 64},
		{"skew-5", skewLanes(), 5},
		{"skew-64", skewLanes(), 64},
		{"single-1", singleLanes(), 1},
		// Replicated lane sets share one index function and take the
		// transposed uniform path; the skew pair mixes partial and
		// total update policies within one uniform group.
		{"single-u64", singleLanes()[:1], 64},
		{"skew-u64", skewLanes()[:2], 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// 20000 steps crosses the internal 8192-step chunking at
			// least twice.
			steps := mkSteps(20000, uint64(len(tc.name)))
			g, twins := buildGroup(t, tc.lanes, tc.want)
			if g.Lanes() != tc.want {
				t.Fatalf("Lanes() = %d, want %d", g.Lanes(), tc.want)
			}
			mis := make([]int, tc.want)
			g.StepBatch64(steps, mis)
			for j, tw := range twins {
				if want := tw.StepBatch(steps); mis[j] != want {
					t.Errorf("lane %d: bitsliced counted %d mispredicts, scalar %d", j, mis[j], want)
				}
			}
			// mis accumulates across calls.
			before := append([]int(nil), mis...)
			g.StepBatch64(steps[:100], mis)
			for j, tw := range twins {
				if want := before[j] + tw.StepBatch(steps[:100]); mis[j] != want {
					t.Errorf("lane %d: second call did not accumulate (got %d, want %d)", j, mis[j], want)
				}
			}
		})
	}
}

// TestGroup64UniformSync: uniform groups own their counter planes, so
// the lane predictors' tables are stale until Writeback and go stale
// again after external mutation until Reload. The test round-trips
// both: run bitsliced, write back, continue each lane on its own
// scalar kernel; then reset everything, reload, and run bitsliced
// again — always against scalar twins fed the identical stream.
func TestGroup64UniformSync(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lanes []laneCase
		want  int
	}{
		{"single", singleLanes()[2:3], 64},
		{"skew", skewLanes()[:2], 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			steps := mkSteps(12000, uint64(len(tc.name)))
			preds := make([]predictor.Predictor, tc.want)
			hists := make([]uint, tc.want)
			twins := make([]Kernel, tc.want)
			for i := 0; i < tc.want; i++ {
				lc := tc.lanes[i%len(tc.lanes)]
				preds[i] = lc.mk()
				hists[i] = lc.hist
				tw, ok := Compile(lc.mk(), lc.hist)
				if !ok {
					t.Fatalf("lane %d scalar twin did not compile", i)
				}
				twins[i] = tw
			}
			g, ok := CompileGroup64(preds, hists)
			if !ok {
				t.Fatal("CompileGroup64 rejected eligible lanes")
			}
			if !g.Uniform() {
				t.Fatal("replicated lane set did not take the uniform path")
			}
			mis := make([]int, tc.want)
			g.StepBatch64(steps[:8000], mis)
			g.Writeback()
			for j, tw := range twins {
				if want := tw.StepBatch(steps[:8000]); mis[j] != want {
					t.Errorf("lane %d: bitsliced counted %d mispredicts, scalar %d", j, mis[j], want)
				}
				// After Writeback the lane predictor holds the group
				// state; a scalar kernel over it must track the twin.
				k, ok := Compile(preds[j], hists[j])
				if !ok {
					t.Fatalf("lane %d did not recompile", j)
				}
				if got, want := k.StepBatch(steps[8000:]), tw.StepBatch(steps[8000:]); got != want {
					t.Errorf("lane %d: post-writeback scalar continuation %d mispredicts, twin %d", j, got, want)
				}
			}
			// External mutation (the scalar continuation above) followed
			// by Reload must resynchronise the planes.
			g.Reload()
			for j := range mis {
				mis[j] = 0
			}
			g.StepBatch64(steps, mis)
			for j, tw := range twins {
				if want := tw.StepBatch(steps); mis[j] != want {
					t.Errorf("lane %d: post-reload bitsliced %d mispredicts, scalar %d", j, mis[j], want)
				}
			}
		})
	}
	// Mixed-shape groups stay on the aliased layout; the sync calls
	// must be safe no-ops there.
	g, _ := buildGroup(t, singleLanes(), 9)
	if g.Uniform() {
		t.Fatal("mixed lane set claimed the uniform path")
	}
	g.Writeback()
	g.Reload()
}

// TestGroup64Rejects: ineligible lane sets must fall back to scalar.
func TestGroup64Rejects(t *testing.T) {
	mixed := []predictor.Predictor{
		predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 8, Ctr: 2}),
		predictor.MustGSkewed(predictor.Config{BankBits: 6, HistoryBits: 6}),
	}
	if _, ok := CompileGroup64(mixed, []uint{0, 6}); ok {
		t.Error("mixed single/skew shapes grouped")
	}
	oneBit := []predictor.Predictor{predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 8, Ctr: 1})}
	if _, ok := CompileGroup64(oneBit, []uint{0}); ok {
		t.Error("1-bit counters grouped; the bitplane automaton is 2-bit only")
	}
	tbc := []predictor.Predictor{predictor.MustSpec(predictor.Spec{Family: "2bcgskew", N: 8, HistShort: 5, Hist: 12})}
	if _, ok := CompileGroup64(tbc, []uint{12}); ok {
		t.Error("2Bc-gskew grouped")
	}
	if _, ok := CompileGroup64(nil, nil); ok {
		t.Error("empty lane set grouped")
	}
	over := make([]predictor.Predictor, MaxLanes+1)
	hists := make([]uint, MaxLanes+1)
	for i := range over {
		over[i] = predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 8, Ctr: 2})
	}
	if _, ok := CompileGroup64(over, hists); ok {
		t.Error("65 lanes grouped into one 64-bit plane")
	}
}

// TestGroupKind64AgreesWithCompile: the cheap pre-classification used
// for sweep grouping must accept exactly what CompileGroup64 accepts.
func TestGroupKind64AgreesWithCompile(t *testing.T) {
	all := append(append([]laneCase{}, singleLanes()...), skewLanes()...)
	for i, lc := range all {
		p := lc.mk()
		kind, ok := GroupKind64(p)
		if !ok {
			t.Errorf("lane %d (%s): GroupKind64 rejected an eligible predictor", i, p.Name())
			continue
		}
		if _, ok := CompileGroup64([]predictor.Predictor{p}, []uint{lc.hist}); !ok {
			t.Errorf("lane %d (%s): kind %d classified but group compile failed", i, p.Name(), kind)
		}
	}
	for _, p := range []predictor.Predictor{
		predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 8, Ctr: 1}),
		predictor.MustSpec(predictor.Spec{Family: "2bcgskew", N: 8, HistShort: 5, Hist: 12}),
		predictor.MustGSkewed(predictor.Config{BankBits: 6, HistoryBits: 6, CounterBits: 1}),
		predictor.NewUnaliased(8, 2),
	} {
		if _, ok := GroupKind64(p); ok {
			t.Errorf("%s: GroupKind64 accepted an ineligible predictor", p.Name())
		}
	}
}

// TestLaneKey64MatchesUniform: two lanes have equal LaneKeys exactly
// when CompileGroup64 puts them on the uniform layout, so grouping by
// key never forms a mixed group.
func TestLaneKey64MatchesUniform(t *testing.T) {
	all := append(append([]laneCase{}, singleLanes()...), skewLanes()...)
	key := func(lc laneCase) (LaneKey, bool) {
		k, ok := Compile(lc.mk(), lc.hist)
		if !ok {
			t.Fatal("lane did not compile")
		}
		return LaneKey64(k)
	}
	for i, a := range all {
		ka, ok := key(a)
		if !ok {
			t.Fatalf("lane %d: LaneKey64 rejected an eligible lane", i)
		}
		for j, b := range all {
			kb, _ := key(b)
			g, grouped := CompileGroup64([]predictor.Predictor{a.mk(), b.mk()}, []uint{a.hist, b.hist})
			uniform := grouped && g.Uniform()
			if (ka == kb) != uniform {
				t.Errorf("lanes %d,%d: equal keys %v, uniform group %v", i, j, ka == kb, uniform)
			}
		}
	}
	for _, p := range []predictor.Predictor{
		predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 8, Ctr: 1}),
		predictor.MustSpec(predictor.Spec{Family: "2bcgskew", N: 8, HistShort: 5, Hist: 12}),
	} {
		k, ok := Compile(p, p.HistoryBits())
		if !ok {
			t.Fatalf("%s did not compile", p.Name())
		}
		if _, ok := LaneKey64(k); ok {
			t.Errorf("%s: LaneKey64 accepted a kernel that cannot be a lane", p.Name())
		}
	}
}

// TestStepBatch64ZeroAllocs is the allocation gate for the bitsliced
// hot loop.
func TestStepBatch64ZeroAllocs(t *testing.T) {
	steps := mkSteps(4096, 17)
	for _, tc := range []struct {
		name  string
		lanes []laneCase
	}{
		{"single", singleLanes()},
		{"skew", skewLanes()},
		{"single-uniform", singleLanes()[:1]},
		{"skew-uniform", skewLanes()[:1]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, _ := buildGroup(t, tc.lanes, 64)
			mis := make([]int, 64)
			if allocs := testing.AllocsPerRun(10, func() { g.StepBatch64(steps, mis) }); allocs != 0 {
				t.Errorf("StepBatch64 allocates %.1f objects per call, want 0", allocs)
			}
		})
	}
}

// TestTouchBatch: the cells a batch touches. A block whose steps name
// only a few (pc, hist) pairs may change at most that many cells in
// each bank — a stray write anywhere else in the tables fails — and
// it must change some cell, so the check is not vacuous.
func TestTouchBatch(t *testing.T) {
	pairs := mkSteps(3, 29)
	steps := make([]Step, 8000)
	r := rng.NewXoshiro256(31)
	for i := range steps {
		p := pairs[r.Uint64()%uint64(len(pairs))]
		steps[i] = Step{PC: p.PC, Hist: p.Hist, Taken: r.Uint64()&1 == 0}
	}
	for _, tc := range cases() {
		t.Run(tc.name, func(t *testing.T) {
			kern, ok := Compile(tc.mk(), tc.hist)
			if !ok {
				t.Fatal("did not compile")
			}
			banks := banksOf(t, kern)
			before := make([][]uint8, len(banks))
			for b, cells := range banks {
				before[b] = append([]uint8(nil), cells...)
			}
			kern.StepBatch(steps)
			total := 0
			for b, cells := range banks {
				changed := 0
				for i := range cells {
					if cells[i] != before[b][i] {
						changed++
					}
				}
				if changed > len(pairs) {
					t.Errorf("bank %d: %d cells changed, but the block names only %d (pc, hist) pairs", b, changed, len(pairs))
				}
				total += changed
			}
			if total == 0 {
				t.Error("the block changed no cell")
			}
		})
	}
}
