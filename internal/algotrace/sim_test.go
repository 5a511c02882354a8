package algotrace_test

// Integration properties of recorded real-algorithm streams against
// the simulation engine: the automatic multi-predictor run (drained
// cell-parallel) must be bit-identical to serial runs on recorded
// streams, for every predictor family the realwork experiment races. This lives in an
// external test package so algotrace itself keeps its tiny dependency
// surface (rng + trace only).

import (
	"runtime"
	"testing"

	"gskew/internal/algotrace"
	"gskew/internal/predictor"
	"gskew/internal/sim"
)

func TestRunSegmentedMatchesSerialOnRecordedStreams(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // helpers for the cell-parallel drain
	streams := []string{
		"algo:mp,n=20000,m=6,seed=3",
		"algo:kmp,n=20000,m=6,pat=uni,seed=3",
		"algo:binsearch,n=1024,q=5000,seed=3",
		"algo:quick,n=2048,runs=2,seed=3",
		"algo:heap,n=2048,runs=2,seed=3",
	}
	preds := []string{
		"bimodal:n=4,ctr=2",
		"gshare:n=9,k=8,ctr=2",
		"gskewed:n=7,k=8,banks=3,ctr=2,policy=partial",
		"tage:n=5,k=20,kmin=4,tables=4,tag=8,ctr=3",
	}
	for _, s := range streams {
		spec, err := algotrace.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		branches, err := algotrace.Record(spec)
		if err != nil {
			t.Fatal(err)
		}
		ps := make([]predictor.Predictor, len(preds))
		for i, p := range preds {
			ps[i] = predictor.MustParseSpec(p)
		}
		serial := make([]sim.Result, len(ps))
		for i, p := range ps {
			r, err := sim.RunBranches(branches, p, sim.Options{Segments: 1})
			if err != nil {
				t.Fatal(err)
			}
			serial[i] = r
		}
		ps = make([]predictor.Predictor, len(preds))
		for i, p := range preds {
			ps[i] = predictor.MustParseSpec(p)
		}
		got, err := sim.RunManyBranches(branches, ps, sim.Options{})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		for i := range ps {
			if got[i] != serial[i] {
				t.Errorf("%s pred=%s: auto %+v != serial %+v", s, preds[i], got[i], serial[i])
			}
		}
	}
}
