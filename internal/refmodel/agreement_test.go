package refmodel_test

// Unit-level agreement between the executable specification and the
// optimized implementation, component by component. The end-to-end
// differential check over full traces lives in refmodel/diff; these
// tests localise a disagreement to the exact function that diverged.

import (
	"testing"

	"gskew/internal/counter"
	"gskew/internal/history"
	"gskew/internal/indexfn"
	"gskew/internal/predictor"
	"gskew/internal/refmodel"
	"gskew/internal/rng"
	"gskew/internal/skewfn"
)

// TestSpecCounterMatchesImpl: the spec automaton and counter.Counter
// agree state-for-state on random outcome sequences at every width.
func TestSpecCounterMatchesImpl(t *testing.T) {
	r := rng.NewXoshiro256(10)
	for bits := uint(1); bits <= 8; bits++ {
		spec := refmodel.NewSpecCounter(bits)
		impl := counter.WeaklyTaken(bits)
		for i := 0; i < 4096; i++ {
			if spec.Predict() != impl.Predict() {
				t.Fatalf("bits=%d step %d: spec predicts %v (state %d), impl %v (state %d)",
					bits, i, spec.Predict(), spec.State, impl.Predict(), impl.Value())
			}
			if spec.State != int(impl.Value()) {
				t.Fatalf("bits=%d step %d: spec state %d, impl state %d",
					bits, i, spec.State, impl.Value())
			}
			taken := r.Uint64()&3 != 0 // biased, to exercise saturation
			spec = spec.Update(taken)
			impl = impl.Update(taken)
		}
	}
}

// TestSpecIndexMatchesImpl: bimodal/gshare/gselect spec index
// functions equal the optimized indexfn implementations across the
// (n, k) grid, including k < n, k == n and the k > n folding regime.
func TestSpecIndexMatchesImpl(t *testing.T) {
	r := rng.NewXoshiro256(11)
	for _, nk := range [][2]uint{{4, 0}, {8, 3}, {8, 8}, {10, 6}, {6, 14}, {12, 12}, {12, 20}, {16, 30}} {
		n, k := nk[0], nk[1]
		gshare := indexfn.NewGShare(n, k)
		gselect := indexfn.NewGSelect(n, k)
		bimodal := indexfn.NewBimodal(n)
		for i := 0; i < 5000; i++ {
			addr, hist := r.Uint64(), r.Uint64()
			if got, want := refmodel.GShareIndex(addr, hist, n, k), gshare.Index(addr, hist); got != want {
				t.Fatalf("gshare n=%d k=%d addr=%#x hist=%#x: spec %#x impl %#x", n, k, addr, hist, got, want)
			}
			if got, want := refmodel.GSelectIndex(addr, hist, n, k), gselect.Index(addr, hist); got != want {
				t.Fatalf("gselect n=%d k=%d addr=%#x hist=%#x: spec %#x impl %#x", n, k, addr, hist, got, want)
			}
			if got, want := refmodel.BimodalIndex(addr, n), bimodal.Index(addr, hist); got != want {
				t.Fatalf("bimodal n=%d addr=%#x: spec %#x impl %#x", n, addr, got, want)
			}
		}
	}
}

// TestSpecSkewMatchesImpl: H, Hinv and the three bank functions agree
// with the optimized skewfn implementation at every supported width.
func TestSpecSkewMatchesImpl(t *testing.T) {
	r := rng.NewXoshiro256(12)
	for n := uint(skewfn.MinBits); n <= skewfn.MaxBits; n++ {
		s := skewfn.New(n)
		for i := 0; i < 2000; i++ {
			y := r.Uint64()
			if got, want := refmodel.H(y, n), s.H(y); got != want {
				t.Fatalf("H n=%d y=%#x: spec %#x impl %#x", n, y, got, want)
			}
			if got, want := refmodel.Hinv(y, n), s.Hinv(y); got != want {
				t.Fatalf("Hinv n=%d y=%#x: spec %#x impl %#x", n, y, got, want)
			}
			v := r.Uint64()
			if got, want := refmodel.F0(v, n), s.F0(v); got != want {
				t.Fatalf("F0 n=%d v=%#x: spec %#x impl %#x", n, v, got, want)
			}
			if got, want := refmodel.F1(v, n), s.F1(v); got != want {
				t.Fatalf("F1 n=%d v=%#x: spec %#x impl %#x", n, v, got, want)
			}
			if got, want := refmodel.F2(v, n), s.F2(v); got != want {
				t.Fatalf("F2 n=%d v=%#x: spec %#x impl %#x", n, v, got, want)
			}
			// The shared-subexpression Indices fast path must match too.
			var idx [3]uint64
			s.Indices(idx[:], v)
			if idx[0] != refmodel.F0(v, n) || idx[1] != refmodel.F1(v, n) || idx[2] != refmodel.F2(v, n) {
				t.Fatalf("Indices n=%d v=%#x: impl %v, spec [%#x %#x %#x]",
					n, v, idx, refmodel.F0(v, n), refmodel.F1(v, n), refmodel.F2(v, n))
			}
		}
	}
}

// TestSpecHistoryMatchesImpl: the outcome-list history equals the
// shift-register implementation over random outcome streams.
func TestSpecHistoryMatchesImpl(t *testing.T) {
	r := rng.NewXoshiro256(13)
	for _, k := range []uint{0, 1, 4, 12, 30, 63} {
		spec := refmodel.NewSpecHistory(k)
		impl := history.NewGlobal(k)
		for i := 0; i < 500; i++ {
			if spec.Value() != impl.Bits() {
				t.Fatalf("k=%d step %d: spec %#x impl %#x", k, i, spec.Value(), impl.Bits())
			}
			taken := r.Uint64()&1 == 0
			spec.Shift(taken)
			impl.Shift(taken)
		}
	}
}

// randomRefs yields a stream of (addr, hist, taken) triples with a
// small, colliding address population, so table-sharing behaviour is
// exercised quickly.
func randomRefs(seed uint64, n int, f func(addr, hist uint64, taken bool)) {
	r := rng.NewXoshiro256(seed)
	hist := refmodel.NewSpecHistory(20)
	for i := 0; i < n; i++ {
		addr := r.Uint64() & 0x3FF
		taken := r.Uint64()&3 != 0
		f(addr, hist.Value(), taken)
		hist.Shift(taken)
	}
}

// TestSpecSingleMatchesImpl: full predictor agreement for the
// single-table organisations on random reference streams, checking
// both the Predict/Update pair and the fused Step path.
func TestSpecSingleMatchesImpl(t *testing.T) {
	cases := []struct {
		kind    string
		n, k, c uint
		impl    func() predictor.Predictor
	}{
		{"bimodal", 6, 0, 2, func() predictor.Predictor { return predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 6, Ctr: 2}) }},
		{"gshare", 8, 6, 2, func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "gshare", N: 8, Hist: 6, Ctr: 2})
		}},
		{"gshare", 6, 12, 1, func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "gshare", N: 6, Hist: 12, Ctr: 1})
		}},
		{"gselect", 8, 4, 2, func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "gselect", N: 8, Hist: 4, Ctr: 2})
		}},
		{"gselect", 6, 10, 2, func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "gselect", N: 6, Hist: 10, Ctr: 2})
		}},
	}
	for _, tc := range cases {
		for _, useStep := range []bool{false, true} {
			spec := refmodel.NewSpecSingle(tc.kind, tc.n, tc.k, tc.c)
			impl := tc.impl()
			step := 0
			randomRefs(100+uint64(tc.n)*7+uint64(tc.k), 20000, func(addr, hist uint64, taken bool) {
				specPred := spec.Predict(addr, hist)
				var implPred bool
				if useStep {
					implPred = impl.(predictor.Stepper).Step(addr, hist, taken)
				} else {
					implPred = impl.Predict(addr, hist)
					impl.Update(addr, hist, taken)
				}
				if specPred != implPred {
					t.Fatalf("%s(n=%d,k=%d,step=%v) diverged at ref %d: spec %v impl %v",
						tc.kind, tc.n, tc.k, useStep, step, specPred, implPred)
				}
				spec.Update(addr, hist, taken)
				step++
			})
		}
	}
}

// TestSpecGSkewedMatchesImpl: full predictor agreement for the skewed
// family across {plain, enhanced} x {partial, total} x counter widths.
func TestSpecGSkewedMatchesImpl(t *testing.T) {
	for _, enhanced := range []bool{false, true} {
		for _, partial := range []bool{true, false} {
			for _, ctr := range []uint{1, 2} {
				for _, useStep := range []bool{false, true} {
					pol := predictor.TotalUpdate
					if partial {
						pol = predictor.PartialUpdate
					}
					impl := predictor.MustGSkewed(predictor.Config{
						Banks: 3, BankBits: 7, HistoryBits: 9,
						CounterBits: ctr, Policy: pol, Enhanced: enhanced,
					})
					spec := refmodel.NewSpecGSkewed(7, 9, ctr, partial, enhanced)
					step := 0
					randomRefs(200+uint64(ctr), 20000, func(addr, hist uint64, taken bool) {
						specPred := spec.Predict(addr, hist)
						var implPred bool
						if useStep {
							implPred = impl.Step(addr, hist, taken)
						} else {
							implPred = impl.Predict(addr, hist)
							impl.Update(addr, hist, taken)
						}
						if specPred != implPred {
							t.Fatalf("gskewed(enh=%v,partial=%v,ctr=%d,step=%v) diverged at ref %d: spec %v impl %v",
								enhanced, partial, ctr, useStep, step, specPred, implPred)
						}
						spec.Update(addr, hist, taken)
						step++
					})
				}
			}
		}
	}
}

// TestSpecTwoBcGSkewMatchesImpl: full predictor agreement for
// 2Bc-gskew over short histories inside, equal to and wider than the
// index, on both the Predict/Update and the fused Step paths.
func TestSpecTwoBcGSkewMatchesImpl(t *testing.T) {
	for _, h := range []struct{ short, long uint }{{3, 9}, {7, 7}, {10, 20}} {
		for _, useStep := range []bool{false, true} {
			impl := predictor.MustSpec(predictor.Spec{Family: "2bcgskew", N: 7, HistShort: h.short, Hist: h.long}).(*predictor.TwoBcGSkew)
			spec := refmodel.NewSpecTwoBcGSkew(7, h.short, h.long)
			step := 0
			randomRefs(300+uint64(h.long), 20000, func(addr, hist uint64, taken bool) {
				specPred := spec.Predict(addr, hist)
				var implPred bool
				if useStep {
					implPred = impl.Step(addr, hist, taken)
				} else {
					implPred = impl.Predict(addr, hist)
					impl.Update(addr, hist, taken)
				}
				if specPred != implPred {
					t.Fatalf("2bcgskew(ks=%d,k=%d,step=%v) diverged at ref %d: spec %v impl %v",
						h.short, h.long, useStep, step, specPred, implPred)
				}
				spec.Update(addr, hist, taken)
				step++
			})
		}
	}
}
