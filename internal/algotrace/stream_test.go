package algotrace

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"gskew/internal/trace"
)

// validationSpecs are the six >=1.35M-branch MP/KMP streams that the
// ext-realwork experiment checks against the analytic oracle.
var validationSpecs = []string{
	"algo:mp,n=300000,m=8,sigma=2,pat=rand,seed=2",
	"algo:kmp,n=300000,m=8,sigma=2,pat=rand,seed=2",
	"algo:mp,n=300000,m=4,sigma=4,pat=rand,seed=5",
	"algo:kmp,n=300000,m=6,pat=uni,seed=3",
	"algo:mp,n=300000,m=6,dist=bern,p=0.7,pat=alt,seed=7",
	"algo:kmp,n=300000,m=6,dist=bern,p=0.7,pat=alt,seed=7",
}

// TestRecordNeverGrows: Record fills one allocation and never grows
// it — a grown slice would have a larger capacity than the
// reservation. MP/KMP reserve their exact count, so the capacity is
// the length; binary search and max-scan reserve reserve's bound, which
// holds on the inputs that drive it (a one-element binary search runs
// no halving) and is exact for max-scan. It covers the validation
// streams, every valid fuzz seed, and nearly all-'a' texts against
// "aa...a" patterns, which maximise MP's failure steps. The sorts'
// stream length depends on the data, so they reserve nothing and are
// skipped.
func TestRecordNeverGrows(t *testing.T) {
	specs := append([]string(nil), validationSpecs...)
	specs = append(specs, algoSpecSeeds...)
	specs = append(specs,
		"algo:mp,n=5000,m=1,sigma=2,dist=bern,p=0.99,pat=uni,seed=1",
		"algo:mp,n=5000,m=8,sigma=2,dist=bern,p=0.99,pat=uni,seed=1",
		"algo:kmp,n=5000,m=8,sigma=2,dist=bern,p=0.99,pat=uni,seed=1",
		"algo:binsearch,n=1,q=100,seed=1",
		"algo:binsearch,n=1024,q=1000,seed=1",
		"algo:scanmax,n=1000,runs=3,seed=1",
	)
	checked := map[string]bool{}
	for _, text := range specs {
		spec, err := ParseSpec(text)
		if err != nil || spec.Validate() != nil {
			continue
		}
		exact, want := spec.Name == "mp" || spec.Name == "kmp", reserve(spec)
		if !exact && want == 0 {
			continue
		}
		branches, err := Record(spec)
		if err != nil {
			t.Fatal(err)
		}
		n := len(branches)
		switch {
		case exact && cap(branches) != n:
			t.Errorf("%s: recorded %d records into capacity %d, want exactly %d", spec, n, cap(branches), n)
		case !exact && (cap(branches) != want || n > want || (spec.Name == "scanmax" && n != want)):
			t.Errorf("%s: recorded %d records into capacity %d, want the reservation %d", spec, n, cap(branches), want)
		}
		checked[spec.Name] = true
	}
	for _, name := range []string{"mp", "kmp", "binsearch", "scanmax"} {
		if !checked[name] {
			t.Errorf("no spec of %s checked", name)
		}
	}
}

// produceAll collects a stream's pushed blocks, checking each is a full
// trace.BlockLen block but the last.
func produceAll(t *testing.T, s *Stream) []trace.Branch {
	t.Helper()
	var out []trace.Branch
	var sizes []int
	err := s.Produce(func(b []trace.Branch) error {
		out = append(out, b...)
		sizes = append(sizes, len(b))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range sizes {
		if n > trace.BlockLen || (i < len(sizes)-1 && n != trace.BlockLen) || n == 0 {
			t.Fatalf("block %d of %d holds %d records", i, len(sizes), n)
		}
	}
	return out
}

// TestStreamMatchesRecord: for every family, the blocks a Stream pushes
// concatenate to exactly Record's stream, a second Produce pushes it
// again, and pulling the Stream as a trace.Source yields it too.
func TestStreamMatchesRecord(t *testing.T) {
	for _, text := range []string{
		"algo:mp,n=20000,m=6,seed=3",
		"algo:kmp,n=20000,m=6,pat=uni,seed=3",
		"algo:binsearch,n=1024,q=3000,seed=3",
		"algo:insertion,n=128,runs=2,sorted=0,seed=3",
		"algo:quick,n=2048,runs=2,seed=3",
		"algo:heap,n=2048,runs=2,seed=3",
		"algo:scanmax,n=8192,runs=2,seed=3",
		"algo:scanmax,n=2048,runs=1,seed=3", // exactly one block
	} {
		spec := MustParseSpec(text)
		want, err := Record(spec)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewStream(spec)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 1; pass <= 2; pass++ {
			if got := produceAll(t, s); !slices.Equal(got, want) {
				t.Fatalf("%s pass %d: pushed %d records differ from Record's %d", text, pass, len(got), len(want))
			}
		}
		pulled, err := trace.Collect(s)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(pulled, want) {
			t.Fatalf("%s: pulled %d records differ from Record's %d", text, len(pulled), len(want))
		}
	}
	if _, err := NewStream(Spec{Name: "mp", N: 4, M: 9}); err == nil {
		t.Fatal("NewStream accepted an invalid spec")
	}
}

// TestStreamStopsAtConsumerError: when the consumer fails on the k-th
// block, the stream hands over no further block and Produce returns
// that error.
func TestStreamStopsAtConsumerError(t *testing.T) {
	s, err := NewStream(MustParseSpec("algo:kmp,n=20000,m=6,seed=3"))
	if err != nil {
		t.Fatal(err)
	}
	blocks := (len(produceAll(t, s)) + trace.BlockLen - 1) / trace.BlockLen
	for _, k := range []int{1, 2, blocks} {
		calls := 0
		stop := fmt.Errorf("consumer stops at block %d", k)
		err := s.Produce(func([]trace.Branch) error {
			calls++
			if calls == k {
				return stop
			}
			return nil
		})
		if !errors.Is(err, stop) || calls != k {
			t.Errorf("k=%d: Produce = %v after %d blocks, want the consumer's error after %d", k, err, calls, k)
		}
	}
}

// TestBlockRecorderTamper: the planted site collision reaches the
// blocks a block recorder hands out, as it reaches Branches.
func TestBlockRecorderTamper(t *testing.T) {
	spec := MustParseSpec("algo:binsearch,n=64,q=2000,seed=5")
	dirty := NewRecorder()
	TamperRecorderSiteCollision(dirty)
	if err := RecordInto(spec, dirty); err != nil {
		t.Fatal(err)
	}
	var pushed []trace.Branch
	rec := NewBlockRecorder(100, func(b []trace.Branch) error {
		pushed = append(pushed, b...)
		return nil
	})
	TamperRecorderSiteCollision(rec)
	if err := RecordInto(spec, rec); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(pushed, dirty.Branches()) {
		t.Fatal("tampered blocks differ from the tampered recording")
	}
}
