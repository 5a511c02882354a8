package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"gskew/internal/algotrace"
	"gskew/internal/obs"
	"gskew/internal/predictor"
	"gskew/internal/trace"
)

// streamFamilies is one small spec per recorded-algorithm family.
var streamFamilies = []string{
	"algo:mp,n=20000,m=6,seed=3",
	"algo:kmp,n=20000,m=6,pat=uni,seed=3",
	"algo:binsearch,n=1024,q=3000,seed=3",
	"algo:insertion,n=128,runs=2,sorted=0,seed=3",
	"algo:quick,n=2048,runs=2,seed=3",
	"algo:heap,n=2048,runs=2,seed=3",
	"algo:scanmax,n=8192,runs=2,seed=3",
}

// streamPreds builds a fresh mixed predictor set: kernel, stepper and
// generic cells, so a cell-parallel run has several kinds of cell.
func streamPreds() []predictor.Predictor {
	var preds []predictor.Predictor
	for _, s := range []string{
		"bimodal:n=4,ctr=2",
		"gshare:n=9,k=8,ctr=2",
		"gskewed:n=7,k=8,banks=3,ctr=2,policy=partial",
		"tage:n=5,k=20,kmin=4,tables=4,tag=8,ctr=3",
		"perceptron:n=6,k=10,tables=3,ctr=6",
	} {
		preds = append(preds, predictor.MustParseSpec(s))
	}
	return preds
}

// TestStreamedRunMatchesRecord: for every algo family, simulating the
// pushed stream, serial and auto (cell-parallel on four helpers),
// gives exactly the results and interval curves of a serial
// RunManyBranches over Record, with and without flushes.
func TestStreamedRunMatchesRecord(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, name := range streamFamilies {
		spec := algotrace.MustParseSpec(name)
		branches, err := algotrace.Record(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, segments := range []int{1, 0} {
			for _, flush := range []int{0, 301} {
				label := fmt.Sprintf("%s segments=%d flush=%d", name, segments, flush)
				wantRec := obs.NewRecorder(500, "a", "b", "c", "d", "e")
				gotRec := obs.NewRecorder(500, "a", "b", "c", "d", "e")
				want, err := RunManyBranches(branches, streamPreds(),
					Options{Segments: 1, FlushEvery: flush, Recorder: wantRec})
				if err != nil {
					t.Fatal(err)
				}
				stream, err := algotrace.NewStream(spec)
				if err != nil {
					t.Fatal(err)
				}
				cellpar := mPathCellPar.Value()
				got, err := RunMany(stream, streamPreds(), Options{Segments: segments, FlushEvery: flush, Recorder: gotRec})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: streamed %v, recorded %v", label, got, want)
				}
				if !reflect.DeepEqual(gotRec.Series(), wantRec.Series()) {
					t.Errorf("%s: streamed interval curves differ from the recorded run's", label)
				}
				if segments == 0 && mPathCellPar.Value() == cellpar {
					t.Errorf("%s: auto run did not drain cell-parallel", label)
				}
			}
		}
	}
}

// failingProducer pushes blocks of a fixed trace and counts the blocks
// handed over.
type failingProducer struct {
	blocks [][]trace.Branch
	handed int
}

func (p *failingProducer) Next() (trace.Branch, error) { panic("pulled a pushed trace") }

func (p *failingProducer) Produce(yield func([]trace.Branch) error) error {
	for _, b := range p.blocks {
		p.handed++
		if err := yield(b); err != nil {
			return err
		}
	}
	return nil
}

// TestStreamedRunReturnsStagingError: a record the stager rejects
// stops the pushed run — the producer hands over no further block —
// and RunMany returns the stager's error.
func TestStreamedRunReturnsStagingError(t *testing.T) {
	good := manyTestTrace(100)
	bad := append([]trace.Branch(nil), good...)
	bad[50].Kind = 7
	p := &failingProducer{blocks: [][]trace.Branch{good, good, bad, good, good}}
	_, err := RunMany(p, streamPreds(), Options{Segments: 1})
	if err == nil || p.handed != 3 {
		t.Fatalf("RunMany = %v after %d blocks, want the bad-kind error after 3", err, p.handed)
	}
	if want := "sim: unknown branch kind 7"; err.Error() != want {
		t.Fatalf("RunMany error %q, want %q", err, want)
	}
}
