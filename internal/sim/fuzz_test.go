package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"runtime"
	"strconv"
	"testing"

	"gskew/internal/obs"
	"gskew/internal/predictor"
	"gskew/internal/trace"
)

// FuzzRunCellParallel drives the automatic path (Segments 0) against
// the serial one over arbitrary traces and arbitrary sweeps of 2–8
// Spec'd cells of mixed family and geometry, with and without
// FlushEvery and a Recorder, and requires bit-identical results and
// interval curves. The trace is the data bytes: two bits per branch
// (taken, unconditional), PC drawn from a small window of each byte so
// aliasing is heavy. Each byte of cells picks one cell's family and
// geometry; dup passes the last predictor twice, the shape
// cellParallelSafe must send to the serial drain. A bitsliced group
// takes at least eight lanes, so a sweep of fewer than eight cells has
// one work unit per cell and must drain cell-parallel.
func FuzzRunCellParallel(f *testing.F) {
	f.Add([]byte{}, []byte{0, 1}, uint(0), false, false)
	f.Add([]byte{0xFF, 0x00, 0xAA}, []byte{3, 4, 5}, uint(7), true, false)
	f.Add([]byte{0x12, 0x34, 0x56, 0x78, 0x9A}, []byte{1, 9, 17, 25, 33, 41, 49, 57}, uint(13), true, false)
	f.Add([]byte{0xC3, 0xC3, 0xC3, 0xC3}, []byte{2, 6, 7}, uint(0), false, true)
	f.Add([]byte{0x5A, 0xA5, 0x0F, 0xF0, 0x33}, []byte{8, 16, 24, 32, 40, 48, 56, 64}, uint(5), true, false)
	prev := runtime.GOMAXPROCS(4) // helpers even on a one-core host
	defer runtime.GOMAXPROCS(prev)
	obs.Enable()
	defer obs.Disable()
	f.Fuzz(func(t *testing.T, data, cells []byte, flush uint, record, dup bool) {
		branches := make([]trace.Branch, 0, 4*len(data))
		for _, b := range data {
			for j := 0; j < 4; j++ {
				bits := b >> (2 * j)
				kind := trace.Conditional
				if bits&2 != 0 && j == 3 {
					kind = trace.Unconditional
				}
				branches = append(branches, trace.Branch{
					PC:    uint64(0x40 + (b>>2)%29),
					Taken: bits&1 != 0,
					Kind:  kind,
				})
			}
		}
		if len(cells) < 2 {
			cells = append(cells, 1, 2)
		}
		cells = cells[:min(len(cells), 8)]
		mk := func() []predictor.Predictor {
			preds := make([]predictor.Predictor, len(cells))
			for i, c := range cells {
				preds[i] = fuzzCell(c)
			}
			if dup {
				preds = append(preds, preds[len(preds)-1])
			}
			return preds
		}
		labels := make([]string, len(cells)+1)
		for i := range labels {
			labels[i] = strconv.Itoa(i)
		}
		run := func(segments int) ([]Result, []byte) {
			opts := Options{Segments: segments, FlushEvery: int(flush % 97)}
			if record {
				opts.Recorder = obs.NewRecorder(7, labels...)
			}
			res, err := RunManyBranches(branches, mk(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if !record {
				return res, nil
			}
			curves, err := json.Marshal(opts.Recorder.Series())
			if err != nil {
				t.Fatal(err)
			}
			return res, curves
		}
		want, wantCurves := run(1)
		before := mParRuns.Value()
		got, gotCurves := run(0)
		if par := mParRuns.Value() != before; !dup && len(cells) < 8 && !par {
			t.Fatalf("cells %v: auto run did not drain cell-parallel", cells)
		} else if dup && par {
			t.Fatalf("cells %v: a predictor passed twice drained cell-parallel", cells)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cells %v flush=%d cell %d: auto %+v, serial %+v", cells, flush%97, i, got[i], want[i])
			}
		}
		if !bytes.Equal(gotCurves, wantCurves) {
			t.Fatalf("cells %v flush=%d: interval curves differ from the serial run", cells, flush%97)
		}
	})
}

// fuzzCell builds one small cell from a byte: the low three bits pick
// the family, the rest its geometry.
func fuzzCell(c byte) predictor.Predictor {
	n := 3 + uint(c>>3)%5
	k := 2 + uint(c>>5)%6
	switch c % 8 {
	case 0:
		return predictor.MustSpec(predictor.Spec{Family: "bimodal", N: n, Ctr: 1 + uint(c>>6)%2})
	case 1:
		return predictor.MustSpec(predictor.Spec{Family: "gshare", N: n, Hist: k, Ctr: 2})
	case 2:
		return predictor.MustSpec(predictor.Spec{Family: "gselect", N: n + 1, Hist: min(k, n), Ctr: 2})
	case 3:
		return predictor.MustGSkewed(predictor.Config{BankBits: n, HistoryBits: k, Policy: predictor.UpdatePolicy(c >> 7)})
	case 4:
		return predictor.MustGSkewed(predictor.Config{BankBits: n, HistoryBits: k, Enhanced: true})
	case 5:
		return predictor.MustSpec(predictor.Spec{Family: "2bcgskew", N: n, HistShort: k / 2, Hist: k})
	case 6:
		return predictor.MustParseSpec("tage:n=5,k=20,kmin=4,tables=4,tag=8,ctr=3")
	default:
		return predictor.MustParseSpec("perceptron:n=6,k=10,tables=3,ctr=6")
	}
}

// FuzzRunSegmented drives arbitrary Options.Segments values over
// arbitrary traces and cells: 0 (auto), 1 and any negative value must
// run and match the serial Run and RunMany results and trained state;
// any value of 2 or more must return ErrSegments from both and leave
// the predictors untrained. The trace bytes and cell bytes are read as
// in FuzzRunCellParallel.
func FuzzRunSegmented(f *testing.F) {
	f.Add([]byte{0x0F, 0xF0}, byte(1), byte(3), int64(0), uint(0))
	f.Add([]byte{0xFF, 0x00, 0xAA, 0x55}, byte(12), byte(29), int64(2), uint(7))
	f.Add([]byte{0x12, 0x34, 0x56, 0x78, 0x9A}, byte(5), byte(6), int64(-3), uint(13))
	f.Add([]byte{0xC3, 0x3C, 0xC3}, byte(44), byte(20), int64(1<<20), uint(0))
	prev := runtime.GOMAXPROCS(4) // helpers even on a one-core host
	defer runtime.GOMAXPROCS(prev)
	f.Fuzz(func(t *testing.T, data []byte, c0, c1 byte, segments int64, flush uint) {
		branches := make([]trace.Branch, 0, 4*len(data))
		for _, b := range data {
			for j := 0; j < 4; j++ {
				bits := b >> (2 * j)
				kind := trace.Conditional
				if bits&2 != 0 && j == 3 {
					kind = trace.Unconditional
				}
				branches = append(branches, trace.Branch{
					PC:    uint64(0x40 + (b>>2)%29),
					Taken: bits&1 != 0,
					Kind:  kind,
				})
			}
		}
		segs := int(max(min(segments, 1<<30), -1<<30))
		flushEvery := int(flush % 97)
		serial := []predictor.Predictor{fuzzCell(c0), fuzzCell(c1)}
		want, err := RunManyBranches(branches, serial, Options{Segments: 1, FlushEvery: flushEvery})
		if err != nil {
			t.Fatal(err)
		}
		one := fuzzCell(c0)
		res, err := RunBranches(branches, one, Options{Segments: segs, FlushEvery: flushEvery})
		preds := []predictor.Predictor{fuzzCell(c0), fuzzCell(c1)}
		got, errMany := RunManyBranches(branches, preds, Options{Segments: segs, FlushEvery: flushEvery})
		if segs >= 2 {
			if !errors.Is(err, ErrSegments) || !errors.Is(errMany, ErrSegments) {
				t.Fatalf("Segments %d: Run err %v, RunMany err %v, want ErrSegments", segs, err, errMany)
			}
			probePredictors(t, fuzzCell(c0), one)
			probePredictors(t, fuzzCell(c0), preds[0])
			probePredictors(t, fuzzCell(c1), preds[1])
			return
		}
		if err != nil || errMany != nil {
			t.Fatalf("Segments %d: Run err %v, RunMany err %v", segs, err, errMany)
		}
		if res != want[0] {
			t.Fatalf("Segments %d: Run %+v, serial %+v", segs, res, want[0])
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Segments %d cell %d: RunMany %+v, serial %+v", segs, i, got[i], want[i])
			}
		}
		probePredictors(t, serial[0], one)
		for i := range serial {
			probePredictors(t, serial[i], preds[i])
		}
	})
}
