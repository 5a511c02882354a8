package sim

import (
	"errors"
	"io"
	"testing"

	"gskew/internal/predictor"
	"gskew/internal/trace"
)

// manyTestTrace builds a deterministic synthetic trace with correlated
// conditionals, noise conditionals and interspersed unconditional
// branches, long enough to exercise aliasing, first uses and flushes.
func manyTestTrace(n int) []trace.Branch {
	branches := make([]trace.Branch, 0, n)
	state := uint64(0x2545f4914f6cdd1d)
	for len(branches) < n {
		// xorshift64* — deterministic, no seeding concerns.
		state ^= state >> 12
		state ^= state << 25
		state ^= state >> 27
		r := state * 0x2545f4914f6cdd1d
		pc := 0x400000 + (r>>8)%257*4
		switch r % 7 {
		case 0:
			branches = append(branches, trace.Branch{PC: pc, Taken: true, Kind: trace.Unconditional})
		case 1, 2:
			// Loop-like branch: taken except every 5th visit.
			branches = append(branches, trace.Branch{PC: 0x400010, Taken: len(branches)%5 != 0, Kind: trace.Conditional})
		case 3:
			// History-correlated: outcome equals a bit of recent control flow.
			branches = append(branches, trace.Branch{PC: 0x400020, Taken: (r>>16)&1 == 0, Kind: trace.Conditional})
		default:
			// Cold/noisy branches across many PCs (first uses, conflicts).
			branches = append(branches, trace.Branch{PC: pc, Taken: r&3 != 0, Kind: trace.Conditional})
		}
	}
	return branches
}

// families returns one fresh instance of every predictor organisation
// in the repo. Fresh instances per call so the sequential and RunMany
// arms never share trained state.
func families() map[string]func() predictor.Predictor {
	return map[string]func() predictor.Predictor{
		"bimodal": func() predictor.Predictor { return predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 8, Ctr: 2}) },
		"gshare": func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "gshare", N: 8, Hist: 6, Ctr: 2})
		},
		"gselect": func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "gselect", N: 8, Hist: 4, Ctr: 2})
		},
		"gskewed-partial": func() predictor.Predictor {
			return predictor.MustGSkewed(predictor.Config{BankBits: 6, HistoryBits: 5})
		},
		"gskewed-total": func() predictor.Predictor {
			return predictor.MustGSkewed(predictor.Config{
				BankBits: 6, HistoryBits: 5, Policy: predictor.TotalUpdate,
			})
		},
		"egskew": func() predictor.Predictor {
			return predictor.MustGSkewed(predictor.Config{
				BankBits: 6, HistoryBits: 8, Enhanced: true,
			})
		},
		"ev8": func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "2bcgskew", N: 7, HistShort: 3, Hist: 9})
		},
		"hybrid": func() predictor.Predictor {
			return predictor.MustHybrid(
				predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 7, Ctr: 2}), predictor.MustSpec(predictor.Spec{Family: "gshare", N: 7, Hist: 6, Ctr: 2}), 7)
		},
		"unaliased": func() predictor.Predictor { return predictor.NewUnaliased(6, 2) },
		"assoc-lru": func() predictor.Predictor { return predictor.NewAssocLRU(64, 5, 2) },
		"agree": func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "agree", N: 7, Hist: 5, Bias: 2, Ctr: 2})
		},
		"bimode": func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "bimode", N: 7, Hist: 5, Choice: 2, Ctr: 2})
		},
		"pas": func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "pas", BHT: 6, Local: 4, N: 7, Ctr: 2})
		},
		"tage": func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "tage", N: 6, Hist: 12, HistMin: 2, Tables: 4, Tag: 6, Ctr: 3})
		},
		"perceptron": func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "perceptron", N: 6, Hist: 10, Tables: 4, Theta: 0, Ctr: 8})
		},
	}
}

// TestRunManyMatchesSequential is the bit-identity contract: one
// RunMany pass must return, for every predictor family and every
// Options combination, the exact Result a dedicated sequential Run
// would produce.
func TestRunManyMatchesSequential(t *testing.T) {
	branches := manyTestTrace(6000)
	optsCases := map[string]Options{
		"default":        {},
		"skip-first-use": {SkipFirstUse: true},
		"flush":          {FlushEvery: 97},
		"flush+skip":     {SkipFirstUse: true, FlushEvery: 53},
		"hist-override":  {HistoryBits: 6},
	}
	fams := families()
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}

	for optName, opts := range optsCases {
		t.Run(optName, func(t *testing.T) {
			// Sequential baseline: one fresh predictor per family.
			want := make([]Result, len(names))
			for i, name := range names {
				res, err := RunBranches(branches, fams[name](), opts)
				if err != nil {
					t.Fatalf("%s: sequential: %v", name, err)
				}
				want[i] = res
			}
			// Single pass over fresh instances of the whole set.
			preds := make([]predictor.Predictor, len(names))
			for i, name := range names {
				preds[i] = fams[name]()
			}
			got, err := RunManyBranches(branches, preds, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, name := range names {
				if got[i] != want[i] {
					t.Errorf("%s: RunMany = %+v, sequential Run = %+v", name, got[i], want[i])
				}
			}
		})
	}
}

// TestStepperMatchesPredictUpdate pins the Stepper contract directly:
// for every family implementing it, Step on one instance must return
// the same predictions — and leave the same trained state — as separate
// Predict and Update calls on a twin instance fed the identical stream.
func TestStepperMatchesPredictUpdate(t *testing.T) {
	branches := manyTestTrace(6000)
	for name, build := range families() {
		t.Run(name, func(t *testing.T) {
			fused := build()
			stepper, ok := fused.(predictor.Stepper)
			if !ok {
				t.Skipf("%s does not implement Stepper", name)
			}
			split := build()
			ghr := uint64(0)
			mask := uint64(1)<<fused.HistoryBits() - 1
			for i, b := range branches {
				if b.Kind != trace.Conditional {
					ghr = (ghr<<1 | 1) & mask
					continue
				}
				want := split.Predict(b.PC, ghr)
				split.Update(b.PC, ghr, b.Taken)
				got := stepper.Step(b.PC, ghr, b.Taken)
				if got != want {
					t.Fatalf("branch %d: Step = %v, Predict = %v", i, got, want)
				}
				bit := uint64(0)
				if b.Taken {
					bit = 1
				}
				ghr = (ghr<<1 | bit) & mask
			}
		})
	}
}

func TestRunManyEmpty(t *testing.T) {
	res, err := RunManyBranches(manyTestTrace(100), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Errorf("RunMany(no predictors) = %v, want nil", res)
	}
}

// TestRunManyGenericSource checks the non-SliceSource path (no Drain
// fast path) produces the same results.
func TestRunManyGenericSource(t *testing.T) {
	branches := manyTestTrace(2000)
	build := func() []predictor.Predictor {
		return []predictor.Predictor{
			predictor.MustSpec(predictor.Spec{Family: "gshare", N: 8, Hist: 6, Ctr: 2}),
			predictor.MustGSkewed(predictor.Config{BankBits: 6, HistoryBits: 5}),
		}
	}
	fast, err := RunManyBranches(branches, build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunMany(&chanSource{branches: branches}, build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fast {
		if fast[i] != slow[i] {
			t.Errorf("predictor %d: slice path %+v != generic path %+v", i, fast[i], slow[i])
		}
	}
}

// chanSource is a minimal non-slice trace.Source.
type chanSource struct {
	branches []trace.Branch
	pos      int
}

func (s *chanSource) Next() (trace.Branch, error) {
	if s.pos >= len(s.branches) {
		return trace.Branch{}, io.EOF
	}
	b := s.branches[s.pos]
	s.pos++
	return b, nil
}

// TestKernelPathMatchesGeneric is the sim-level contract for the
// compiled fast path: with and without kernels, every family and
// Options combination must produce the identical Result. SkipFirstUse
// is included even though it forces trackers onto the generic path —
// the flag must not perturb the others.
func TestKernelPathMatchesGeneric(t *testing.T) {
	branches := manyTestTrace(8000)
	optsCases := map[string]Options{
		"default":       {},
		"flush":         {FlushEvery: 211},
		"hist-override": {HistoryBits: 7},
		"skip":          {SkipFirstUse: true},
	}
	fams := families()
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	for optName, opts := range optsCases {
		t.Run(optName, func(t *testing.T) {
			mk := func() []predictor.Predictor {
				preds := make([]predictor.Predictor, len(names))
				for i, name := range names {
					preds[i] = fams[name]()
				}
				return preds
			}
			generic := opts
			generic.NoKernel = true
			want, err := RunManyBranches(branches, mk(), generic)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunManyBranches(branches, mk(), opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, name := range names {
				if got[i] != want[i] {
					t.Errorf("%s: kernel path %+v, generic path %+v", name, got[i], want[i])
				}
			}
		})
	}
}

// TestKernelRunLeavesPredictorConsistent: after a kernel-driven run
// the predictor must serve interface calls from the trained state (the
// runner invalidates any memoised reads the kernel bypassed).
func TestKernelRunLeavesPredictorConsistent(t *testing.T) {
	branches := manyTestTrace(4000)
	viaKernel := predictor.MustGSkewed(predictor.Config{BankBits: 6, HistoryBits: 5})
	viaIface := predictor.MustGSkewed(predictor.Config{BankBits: 6, HistoryBits: 5})
	if _, err := RunBranches(branches, viaKernel, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunBranches(branches, viaIface, Options{NoKernel: true}); err != nil {
		t.Fatal(err)
	}
	for pc := uint64(0x400000); pc < 0x400100; pc += 4 {
		for h := uint64(0); h < 32; h++ {
			if viaKernel.Predict(pc, h) != viaIface.Predict(pc, h) {
				t.Fatalf("trained state differs at pc=%#x hist=%#x", pc, h)
			}
		}
	}
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

// TestSegmentsAboveOneRejected: a run is serial or automatic, never
// split in time, so Segments >= 2 is an error from Run and RunMany
// that leaves the predictors untouched.
func TestSegmentsAboveOneRejected(t *testing.T) {
	branches := manyTestTrace(2000)
	for _, segments := range []int{2, 5} {
		p := predictor.MustSpec(predictor.Spec{Family: "gshare", N: 8, Hist: 6, Ctr: 2})
		if _, err := RunBranches(branches, p, Options{Segments: segments}); !errors.Is(err, ErrSegments) {
			t.Errorf("Run with Segments %d: err %v, want ErrSegments", segments, err)
		}
		preds := []predictor.Predictor{p, predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 8, Ctr: 2})}
		if _, err := RunManyBranches(branches, preds, Options{Segments: segments}); !errors.Is(err, ErrSegments) {
			t.Errorf("RunMany with Segments %d: err %v, want ErrSegments", segments, err)
		}
		probePredictors(t, predictor.MustSpec(predictor.Spec{Family: "gshare", N: 8, Hist: 6, Ctr: 2}), p)
	}
}
