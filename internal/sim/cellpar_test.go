package sim

import (
	"bytes"
	"encoding/json"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"

	"gskew/internal/obs"
	"gskew/internal/predictor"
	"gskew/internal/trace"
)

// cellParCase is one sweep shape for the cell-parallel property test:
// mk builds fresh predictors, par says whether the automatic path may
// drain it cell-parallel.
type cellParCase struct {
	mk  func() []predictor.Predictor
	par bool
}

// cellParCases covers the families() matrix as work units: every
// Spec-described family together (kernel cells, TAGE and perceptron
// steppers, first-use trackers under SkipFirstUse), the same with
// uniform bitsliced groups mixed in, and the two shapes that must fall
// back to a serial drain — a predictor without a Spec (a hybrid, which
// may share components) and a predictor passed twice.
func cellParCases() map[string]cellParCase {
	fams := families()
	names := make([]string, 0, len(fams))
	for name := range fams {
		if name != "hybrid" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	specced := func() []predictor.Predictor {
		preds := make([]predictor.Predictor, len(names))
		for i, name := range names {
			preds[i] = fams[name]()
		}
		return preds
	}
	return map[string]cellParCase{
		"families": {mk: specced, par: true},
		"families+groups": {mk: func() []predictor.Predictor {
			preds := specced()
			for i := 0; i < 9; i++ {
				preds = append(preds,
					predictor.MustSpec(predictor.Spec{Family: "gshare", N: 8, Hist: 6, Ctr: 2}),
					predictor.MustGSkewed(predictor.Config{BankBits: 6, HistoryBits: 5}))
			}
			return preds
		}, par: true},
		"hybrid-fallback": {mk: func() []predictor.Predictor {
			return append(specced(), fams["hybrid"]())
		}},
		"duplicate-fallback": {mk: func() []predictor.Predictor {
			preds := specced()
			return append(preds, preds[0])
		}},
	}
}

// TestCellParallelMatchesSerial is the exactness contract of the
// cell-parallel drain: under every option shape the automatic path
// (Segments 0) must return the serial path's Results, leave every
// predictor in the serially trained state, and feed a Recorder
// byte-identical interval curves. FlushEvery 301 makes every drain a
// tiny block. Cases that cannot run cell-parallel must not.
func TestCellParallelMatchesSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	obs.Enable()
	defer obs.Disable()
	branches := manyTestTrace(7000)
	for caseName, tc := range cellParCases() {
		for optName, opts := range map[string]Options{
			"default":    {},
			"skip":       {SkipFirstUse: true},
			"flush":      {FlushEvery: 301},
			"flush+skip": {SkipFirstUse: true, FlushEvery: 301},
			"hist":       {HistoryBits: 6},
			"nokernel":   {NoKernel: true, FlushEvery: 1000},
			"nobitslice": {NoBitslice: true},
		} {
			t.Run(caseName+"/"+optName, func(t *testing.T) {
				run := func(segments int) ([]predictor.Predictor, []Result, []byte) {
					preds := tc.mk()
					labels := make([]string, len(preds))
					for i := range labels {
						labels[i] = itoa(i)
					}
					o := opts
					o.Segments = segments
					o.Recorder = obs.NewRecorder(500, labels...)
					res, err := RunManyBranches(branches, preds, o)
					if err != nil {
						t.Fatal(err)
					}
					curves, err := json.Marshal(o.Recorder.Series())
					if err != nil {
						t.Fatal(err)
					}
					return preds, res, curves
				}
				serialP, want, wantCurves := run(1)
				before := mParRuns.Value()
				parP, got, gotCurves := run(0)
				if ran := mParRuns.Value() != before; ran != tc.par {
					t.Fatalf("cell-parallel ran = %v, want %v", ran, tc.par)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("cell %d: cell-parallel %+v, serial %+v", i, got[i], want[i])
					}
				}
				if !bytes.Equal(gotCurves, wantCurves) {
					t.Error("interval curves differ from the serial run")
				}
				for i := range serialP {
					probePredictors(t, serialP[i], parP[i])
				}
			})
		}
	}
}

// TestCellParallelGenericSource: a streaming (non-slice) source drains
// cell-parallel block by block, with the serial path's results.
func TestCellParallelGenericSource(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	branches := manyTestTrace(20000)
	mk := cellParCases()["families+groups"].mk
	want, err := RunManyBranches(branches, mk(), Options{Segments: 1, FlushEvery: 4000})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunMany(&chanSource{branches: branches}, mk(), Options{FlushEvery: 4000})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cell %d: cell-parallel %+v, serial %+v", i, got[i], want[i])
		}
	}
}

// TestCellParallelSteadyStateAllocs: the workers are started once per
// run and parked between blocks, and the per-cell deltas live in a
// per-runner scratch, so a cell-parallel run allocates a constant
// independent of the trace length.
func TestCellParallelSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is inflated under the race detector")
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	mk := func() []predictor.Predictor {
		var preds []predictor.Predictor
		for n := uint(6); n < 10; n++ {
			preds = append(preds, predictor.MustSpec(predictor.Spec{Family: "gshare", N: n, Hist: 6, Ctr: 2}))
		}
		return preds
	}
	allocs := func(n int) float64 {
		src := trace.NewSliceSource(manyTestTrace(n))
		preds := mk()
		return testing.AllocsPerRun(5, func() {
			src.Reset()
			if _, err := RunMany(src, preds, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	short, long := allocs(1<<13), allocs(1<<17)
	if long > short+2 {
		t.Errorf("cell-parallel run allocates %.0f times over %d branches but %.0f over %d; want a constant",
			long, 1<<17, short, 1<<13)
	}
}

// TestCellParallelBadKind: a trace error after several cell-parallel
// blocks is returned, with the helpers stopped and joined on that path
// too (under -race, make check runs it ten times).
func TestCellParallelBadKind(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	obs.Enable()
	defer obs.Disable()
	branches := append(manyTestTrace(20000), trace.Branch{PC: 1, Kind: trace.Kind(9)})
	before := mParRuns.Value()
	if _, err := RunManyBranches(branches, cellParCases()["families"].mk(), Options{}); err == nil {
		t.Fatal("unknown branch kind accepted")
	}
	if mParRuns.Value() == before {
		t.Fatal("run did not take the cell-parallel path")
	}
}
