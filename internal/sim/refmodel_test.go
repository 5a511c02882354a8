package sim_test

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"gskew/internal/kernel"
	"gskew/internal/obs"
	"gskew/internal/predictor"
	"gskew/internal/refmodel"
	"gskew/internal/sim"
	"gskew/internal/trace"
	"gskew/internal/workload"
)

// specReplay re-implements the runner's measurement methodology on top
// of the executable paper spec: unconditional branches shift the
// history as taken (whatever their recorded direction), only
// conditionals are predicted and counted, and with flushEvery > 0 the
// spec and the history are wiped every flushEvery conditionals — when
// the next conditional arrives, so a boundary at the end of the trace
// is no flush. It is an independent transcription, sharing no code
// with package sim.
func specReplay(branches []trace.Branch, mk func() refmodel.Spec, flushEvery int) sim.Result {
	spec := mk()
	h := refmodel.NewSpecHistory(spec.HistoryBits())
	var res sim.Result
	for _, b := range branches {
		switch b.Kind {
		case trace.Conditional:
			if flushEvery > 0 && res.Conditionals > 0 && res.Conditionals%flushEvery == 0 {
				spec = mk()
				h.Reset()
				res.Flushes++
			}
			res.Conditionals++
			if spec.Predict(b.PC, h.Value()) != b.Taken {
				res.Mispredicts++
			}
			spec.Update(b.PC, h.Value(), b.Taken)
			h.Shift(b.Taken)
		case trace.Unconditional:
			res.Unconditionals++
			h.Shift(true)
		}
	}
	return res
}

// plainSource hides every optional interface of a SliceSource, so the
// runner reads it one Next call at a time.
type plainSource struct{ s *trace.SliceSource }

func (p plainSource) Next() (trace.Branch, error) { return p.s.Next() }

// specSources returns, per source kind, a constructor of a fresh
// source over branches: the materialised slice, a plain non-batch
// Source, and a memory-mapped columnar file. Each constructor also
// returns a close function.
func specSources(t *testing.T, branches []trace.Branch) []struct {
	name string
	open func() (trace.Source, func())
} {
	t.Helper()
	columnar, err := trace.EncodeColumnar(branches)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.gbc")
	if err := os.WriteFile(path, columnar, 0o644); err != nil {
		t.Fatal(err)
	}
	nop := func() {}
	return []struct {
		name string
		open func() (trace.Source, func())
	}{
		{"slice", func() (trace.Source, func()) { return trace.NewSliceSource(branches), nop }},
		{"plain", func() (trace.Source, func()) { return plainSource{trace.NewSliceSource(branches)}, nop }},
		{"mapfile", func() (trace.Source, func()) {
			m, err := trace.MapFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return m, func() { m.Close() }
		}},
	}
}

// specReplayTrace is a recorded-shape workload long enough for many
// 4096-step blocks, with every
// other unconditional recorded not-taken: the binary formats carry
// that direction, and the runner must still shift a 1 for it.
func specReplayTrace(t *testing.T) []trace.Branch {
	t.Helper()
	spec, err := workload.ByName("verilog")
	if err != nil {
		t.Fatal(err)
	}
	branches, err := workload.Materialize(spec, workload.Config{Scale: 0.011})
	if err != nil {
		t.Fatal(err)
	}
	if len(branches) < 1<<16 {
		t.Fatalf("trace has %d records, want at least 65536 (16 full blocks)", len(branches))
	}
	notTaken := 0
	for i := range branches {
		if branches[i].Kind == trace.Unconditional && i%2 == 0 {
			branches[i].Taken = false
			notTaken++
		}
	}
	if notTaken == 0 {
		t.Fatal("trace has no not-taken unconditionals")
	}
	return branches
}

// TestRunMatchesSpecReplay: the optimized runner produces the same
// result as replaying the trace against the paper spec with a
// spec-level history register — from every source kind, serial
// (Segments 1) and automatic (0), with and without flushes, one
// predictor at a time and all together through RunMany.
func TestRunMatchesSpecReplay(t *testing.T) {
	prev := runtime.GOMAXPROCS(4) // helpers for the automatic paths
	defer runtime.GOMAXPROCS(prev)
	branches := specReplayTrace(t)
	sources := specSources(t, branches)

	cases := []struct {
		name string
		impl func() predictor.Predictor
		ref  func() refmodel.Spec
	}{
		{"bimodal",
			func() predictor.Predictor { return predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 7, Ctr: 2}) },
			func() refmodel.Spec { return refmodel.NewSpecSingle("bimodal", 7, 0, 2) }},
		{"gshare",
			func() predictor.Predictor {
				return predictor.MustSpec(predictor.Spec{Family: "gshare", N: 8, Hist: 6, Ctr: 2})
			},
			func() refmodel.Spec { return refmodel.NewSpecSingle("gshare", 8, 6, 2) }},
		{"gselect",
			func() predictor.Predictor {
				return predictor.MustSpec(predictor.Spec{Family: "gselect", N: 8, Hist: 5, Ctr: 2})
			},
			func() refmodel.Spec { return refmodel.NewSpecSingle("gselect", 8, 5, 2) }},
		{"egskew",
			func() predictor.Predictor {
				return predictor.MustGSkewed(predictor.Config{
					Banks: 3, BankBits: 6, HistoryBits: 8, CounterBits: 2,
					Policy: predictor.PartialUpdate, Enhanced: true,
				})
			},
			func() refmodel.Spec { return refmodel.NewSpecGSkewed(6, 8, 2, true, true) }},
	}

	flushes := []int{0, 301}
	want := make(map[int][]sim.Result)
	for _, flush := range flushes {
		for _, c := range cases {
			want[flush] = append(want[flush], specReplay(branches, c.ref, flush))
		}
	}

	run := func(t *testing.T, preds []predictor.Predictor, open func() (trace.Source, func()), opts sim.Options) []sim.Result {
		t.Helper()
		src, done := open()
		defer done()
		got, err := sim.RunMany(src, preds, opts)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, flush := range flushes {
				for _, src := range sources {
					for _, segments := range []int{1, 0} {
						opts := sim.Options{Segments: segments, FlushEvery: flush}
						got := run(t, []predictor.Predictor{c.impl()}, src.open, opts)
						if ref := want[flush][ci]; got[0] != ref {
							t.Errorf("%s segments=%d flush=%d: runner %+v, spec %+v", src.name, segments, flush, got[0], ref)
						}
					}
				}
			}
		})
	}

	// The single-pass multi-predictor runner (cell-parallel under
	// Segments 0) must agree with the same spec replays, predictor by
	// predictor.
	t.Run("runmany", func(t *testing.T) {
		for _, flush := range flushes {
			for _, src := range sources {
				for _, segments := range []int{1, 0} {
					preds := make([]predictor.Predictor, len(cases))
					for i, c := range cases {
						preds[i] = c.impl()
					}
					got := run(t, preds, src.open, sim.Options{Segments: segments, FlushEvery: flush})
					for i, r := range got {
						if ref := want[flush][i]; r != ref {
							t.Errorf("%s segments=%d flush=%d %s: runner %+v, spec %+v",
								src.name, segments, flush, cases[i].name, r, ref)
						}
					}
				}
			}
		}
	})

	// A legacy varint file (the committed fixture: verilog at scale
	// 0.01) replays through MapFile to the spec replay of the generated
	// workload, serial and automatic, in one RunMany.
	t.Run("legacy-varint", func(t *testing.T) {
		generated, err := workload.MaterializeAny("verilog", workload.Config{Scale: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		for _, segments := range []int{1, 0} {
			preds := make([]predictor.Predictor, len(cases))
			for i, c := range cases {
				preds[i] = c.impl()
			}
			m, err := trace.MapFile("../trace/testdata/verilog-0.01.trace")
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.RunMany(m, preds, sim.Options{Segments: segments})
			m.Close()
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range got {
				if ref := specReplay(generated, cases[i].ref, 0); r != ref {
					t.Errorf("segments=%d %s: runner %+v, spec %+v", segments, cases[i].name, r, ref)
				}
			}
		}
	})
}

// TestWideSkewCountersRunOnInterfacePath: skewed predictors with
// counters wider than kernel.MaxSkewCtrBits (5 to 8 bits) have no
// joint transition table, so they do not compile. The runner steps
// them on the interface path — the predictor's fused Step, since
// GSkewed is a predictor.Stepper, so sim.path.stepper counts each cell
// and sim.path.kernel none — and every result equals the spec replay.
func TestWideSkewCountersRunOnInterfacePath(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	branches := specReplayTrace(t)
	count := func(name string) int64 { return obs.Default().Snapshot()["sim.path."+name].(int64) }
	for w := uint(kernel.MaxSkewCtrBits + 1); w <= 8; w++ {
		for _, c := range []struct {
			family            string
			partial, enhanced bool
		}{{"gskewed", true, false}, {"egskew", false, true}} {
			spec := predictor.Spec{Family: c.family, N: 7, Hist: 9, Ctr: w, Policy: predictor.TotalUpdate}
			if c.partial {
				spec.Policy = predictor.PartialUpdate
			}
			p := predictor.MustSpec(spec)
			if _, ok := kernel.Compile(p, 9); ok {
				t.Fatalf("%s compiled", spec)
			}
			kern0, step0, gen0 := count("kernel"), count("stepper"), count("generic")
			got, err := sim.RunBranches(branches, p, sim.Options{Segments: 1})
			if err != nil {
				t.Fatal(err)
			}
			if dk, ds, dg := count("kernel")-kern0, count("stepper")-step0, count("generic")-gen0; dk != 0 || ds != 1 || dg != 0 {
				t.Errorf("%s: path counters rose kernel %d, stepper %d, generic %d; want 0, 1, 0", spec, dk, ds, dg)
			}
			want := specReplay(branches, func() refmodel.Spec {
				return refmodel.NewSpecGSkewed(7, 9, w, c.partial, c.enhanced)
			}, 0)
			if got != want {
				t.Errorf("%s: runner %+v, spec %+v", spec, got, want)
			}
		}
	}
}

// TestSkewShapesRunOnKernelPath: the wider skews of ablation-banks and
// the shared-hysteresis skews of ext-encoding compile, so the runner
// counts each under sim.path.kernel and adds nothing to
// sim.path.stepper — and every result equals the spec replay.
func TestSkewShapesRunOnKernelPath(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	branches := specReplayTrace(t)
	count := func(name string) int64 { return obs.Default().Snapshot()["sim.path."+name].(int64) }
	for _, spec := range []predictor.Spec{
		{Family: "gskewed", Banks: 5, N: 12, Hist: 8},
		{Family: "gskewed", Banks: 7, N: 12, Hist: 8},
		{Family: "gskewed", N: 12, Hist: 8, SharedHyst: 1},
		{Family: "gskewed", N: 13, Hist: 8, SharedHyst: 2},
	} {
		p := predictor.MustSpec(spec)
		kern0, step0 := count("kernel"), count("stepper")
		got, err := sim.RunBranches(branches, p, sim.Options{Segments: 1})
		if err != nil {
			t.Fatal(err)
		}
		if dk, ds := count("kernel")-kern0, count("stepper")-step0; dk != 1 || ds != 0 {
			t.Errorf("%s: path counters rose kernel %d, stepper %d; want 1, 0", spec, dk, ds)
		}
		want := specReplay(branches, func() refmodel.Spec {
			return refmodel.NewSpecSkew(refmodel.SkewShape{
				N: spec.N, K: spec.Hist, Ctr: 2, Banks: spec.Banks, SharedHyst: spec.SharedHyst, Partial: true,
			})
		}, 0)
		if got != want {
			t.Errorf("%s: runner %+v, spec %+v", spec, got, want)
		}
	}
}

// TestSpecReplayFlushTiming pins the flush rule specReplay and the
// runner share on a hand-built trace: the flush lands when the next
// conditional arrives, after any unconditionals in between, and a
// boundary with no later conditional is not a flush.
func TestSpecReplayFlushTiming(t *testing.T) {
	c := func(taken bool) trace.Branch { return trace.Branch{PC: 0x10, Taken: taken} }
	u := trace.Branch{PC: 0x20, Kind: trace.Unconditional}
	branches := []trace.Branch{c(true), c(false), u, u, c(true), c(true), u}
	mk := func() refmodel.Spec { return refmodel.NewSpecSingle("gshare", 4, 3, 2) }
	for _, flush := range []int{1, 2, 4} {
		want := specReplay(branches, mk, flush)
		if wantFlushes := (4 - 1) / flush; want.Flushes != wantFlushes {
			t.Fatalf("flush=%d: spec counted %d flushes, want %d", flush, want.Flushes, wantFlushes)
		}
		for _, segments := range []int{1, 0} {
			p := predictor.MustSpec(predictor.Spec{Family: "gshare", N: 4, Hist: 3, Ctr: 2})
			got, err := sim.RunBranches(branches, p, sim.Options{Segments: segments, FlushEvery: flush})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("flush=%d segments=%d: runner %+v, spec %+v", flush, segments, got, want)
			}
		}
	}
}
