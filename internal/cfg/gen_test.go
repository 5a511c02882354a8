package cfg

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"gskew/internal/trace"
)

// genSizes are GenConfigs from a small kernel-sized program to one
// larger than the biggest benchmark process, in an order that makes a
// reused arena both shrink and grow.
var genSizes = []GenConfig{
	{Procs: 4 + 20000/64, StaticBranches: 20000, MeanTrips: 20},
	{Procs: 4 + 1500/64, StaticBranches: 1500, MeanTrips: 36, Mix: BehaviorMix{StronglyBiased: 0.62, WeaklyBiased: 0.13, Correlated: 0.15, Random: 0.06, Alternating: 0.04}},
	{Procs: 1, StaticBranches: 1},
	{Procs: 4 + 11701/64, StaticBranches: 11701, MeanTrips: 20, Mix: BehaviorMix{StronglyBiased: 0.475, WeaklyBiased: 0.18, Correlated: 0.28, Random: 0.04, Alternating: 0.025}},
	{Procs: 9, StaticBranches: 300, Mix: BehaviorMix{Alternating: 1}},
	{Procs: 4 + 25000/64, StaticBranches: 25000, MeanTrips: 65},
}

// generateAllocsBound bounds the allocations of one Generate, whatever
// the program's size: its arena (the Program header and ten slabs,
// each one chunk when the size hints hold), the site and procedure
// indices and the names string, with room for a slab that outgrows
// its hint and for the pooled scratch regrowing after a collection.
const generateAllocsBound = 20

// TestGenerateAllocs: generating a program costs a bounded number of
// allocations, not a number per site.
func TestGenerateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops workspaces at random under the race detector")
	}
	for i, gc := range genSizes {
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := Generate(gc, uint64(i)); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > generateAllocsBound {
			t.Errorf("%d sites: Generate makes %.1f allocations, want at most %d", gc.StaticBranches, allocs, generateAllocsBound)
		}
	}
}

// TestGenerateWalkerAllocs: GenerateWalker allocates only the walker
// (the Walker, its ops, scratch and stack) and the procedure names,
// whatever the program's size.
func TestGenerateWalkerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops workspaces at random under the race detector")
	}
	for i, gc := range genSizes {
		allocs := testing.AllocsPerRun(10, func() { GenerateWalker(gc, uint64(i), 1) })
		if allocs > 8 {
			t.Errorf("%d sites: GenerateWalker makes %.1f allocations, want at most 8", gc.StaticBranches, allocs)
		}
	}
}

// TestGenerateWalkerMatchesNewWalker: a program built in a reused
// arena walks exactly like the same program built by Generate, over a
// sequence of sizes that shrinks and grows the arena's chunks.
func TestGenerateWalkerMatchesNewWalker(t *testing.T) {
	for round := 0; round < 2; round++ {
		for i, gc := range genSizes {
			seed, wseed := uint64(7*i+round), uint64(100+i)
			prog, err := Generate(gc, seed)
			if err != nil {
				t.Fatal(err)
			}
			want := NewWalker(prog, wseed).Emit(nil, 50000)
			got := GenerateWalker(gc, seed, wseed).Emit(nil, 50000)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("round %d, %d sites: record %d is %+v, want %+v", round, gc.StaticBranches, j, got[j], want[j])
				}
			}
		}
	}
}

// TestGenerateConcurrent: goroutines generating at once, as scheduler
// cells do, each get their own workspace: every walker they build
// matches the one built serially.
func TestGenerateConcurrent(t *testing.T) {
	const records = 5000
	want := make([][]trace.Branch, len(genSizes))
	for i, gc := range genSizes {
		want[i] = GenerateWalker(gc, uint64(i), 9).Emit(nil, records)
	}
	errs := make(chan string, 4*len(genSizes))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range genSizes {
				i := (k + g) % len(genSizes)
				var w *Walker
				if g%2 == 0 {
					w = GenerateWalker(genSizes[i], uint64(i), 9)
				} else {
					prog, err := Generate(genSizes[i], uint64(i))
					if err != nil {
						errs <- err.Error()
						return
					}
					w = NewWalker(prog, 9)
				}
				if got := w.Emit(nil, records); !slices.Equal(got, want[i]) {
					errs <- fmt.Sprintf("goroutine %d: %d sites: stream differs from the serial one", g, genSizes[i].StaticBranches)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestGenerateReuseKeepsProgramsApart: programs from Generate own
// their arenas, so generating more programs, in fresh or reused
// arenas, changes none of an earlier program's records.
func TestGenerateReuseKeepsProgramsApart(t *testing.T) {
	gc := genSizes[3]
	prog, err := Generate(gc, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := NewWalker(prog, 2).Emit(nil, 20000)
	for i, other := range genSizes {
		if _, err := Generate(other, uint64(i)); err != nil {
			t.Fatal(err)
		}
		GenerateWalker(other, uint64(i), 3)
	}
	after := NewWalker(prog, 2).Emit(nil, 20000)
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(before, after) {
		t.Fatal("generating more programs changed an earlier program's records")
	}
}
