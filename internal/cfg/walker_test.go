package cfg

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"

	"gskew/internal/rng"
	"gskew/internal/trace"
)

// scrambled is a Behavior the compiler does not know, so the compiled
// walker asks it through Decide. It draws, reads the history and keeps
// per-site state.
type scrambled struct{ mask uint64 }

func (s scrambled) Decide(r *rng.Xoshiro256, hist uint64, scratch *uint64) bool {
	*scratch += hist&s.mask | 1
	return r.Uint64()&1 == 0 != (*scratch&2 == 0)
}

func (scrambled) Bias() float64 { return 0.5 }

// loops returns every Loop node of prog.
func loops(prog *Program) []*Loop {
	var out []*Loop
	var walk func(seq []Node)
	walk = func(seq []Node) {
		for _, n := range seq {
			switch n := n.(type) {
			case *If:
				walk(n.Then)
				walk(n.Else)
			case *Loop:
				out = append(out, n)
				walk(n.Body)
			}
		}
	}
	for _, p := range prog.Procs {
		walk(p.Body)
	}
	return out
}

// edgeBehaviors are the behaviours whose compiled form takes a special
// case: no draw for P <= 0 or P >= 1, a flip without a draw for Noise
// >= 1, no noise draw for Noise <= 0 or NaN, a draw that never hits
// for P NaN, and period 0 as period 1.
var edgeBehaviors = []Behavior{
	Biased{P: 0}, Biased{P: 1}, Biased{P: -1}, Biased{P: 2}, Biased{P: math.NaN()},
	Biased{P: 0x1p-60}, Biased{P: 1 - 0x1p-53},
	Correlated{Mask: 0b1011, Noise: 1}, Correlated{Mask: 0b110, Invert: true, Noise: 3},
	Correlated{Mask: 0b1, Noise: math.NaN()}, Correlated{Mask: 0b11, Noise: -1},
	Correlated{Mask: 0, Invert: true, Noise: 0.5},
	Alternating{}, Alternating{Period: 1},
}

// edgeTrips are trip distributions whose compiled form takes a special
// case: the floor of Min at 1, and a geometric tail with p == 1, which
// Geometric returns without a draw.
var edgeTrips = []TripDist{
	{Min: 0}, {Min: -3}, {Min: 1, MeanExtra: 1e-300}, {Min: 0, MeanExtra: 0.5},
	{Min: 2, MeanExtra: math.NaN()}, {Min: 3, MeanExtra: 4},
}

// diffWalkers runs a compiled walker and the tree reference over prog
// in lockstep for total records. The compiled walker is read in chunks
// whose sizes come from split, through Fill, Next, NextBatch and Emit
// in turn; after every chunk the records so far, History() and the
// generator state must match the reference's.
func diffWalkers(t *testing.T, prog *Program, seed uint64, total int, split *rng.Xoshiro256) {
	t.Helper()
	w, ref := NewWalker(prog, seed), newRefWalker(prog, seed)
	got := make([]trace.Branch, 0, total)
	for done, chunk := 0, 0; done < total; chunk++ {
		k := min(split.Intn(700), total-done)
		switch chunk % 4 {
		case 0:
			got = got[:done+k]
			w.Fill(got[done:])
		case 1:
			for i := 0; i < k; i++ {
				b, _ := w.Next()
				got = append(got, b)
			}
		case 2:
			got = got[:done+k]
			if n, err := w.NextBatch(got[done:]); n != k || err != nil {
				t.Fatalf("NextBatch = %d, %v; want %d, nil", n, err, k)
			}
		case 3:
			got = w.Emit(got, k)
		}
		for i := done; i < done+k; i++ {
			want, _ := ref.Next()
			if got[i] != want {
				t.Fatalf("record %d: compiled %+v, reference %+v", i, got[i], want)
			}
		}
		done += k
		if w.History() != ref.hist {
			t.Fatalf("after %d records: History %#x, reference %#x", done, w.History(), ref.hist)
		}
		if w.r != *ref.r {
			t.Fatalf("after %d records: generator state differs from the reference's", done)
		}
	}
}

// FuzzWalkerCompiled diffs the compiled walker against the tree
// reference on random programs: a random GenConfig over every
// behaviour mix, a random entry procedure, one custom Behavior, edge
// behaviours and trip counts planted on random sites and loops, and
// random split points between reads. Each generated program must also
// validate, and GenerateWalker must walk it as NewWalker does before
// anything is planted.
func FuzzWalkerCompiled(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint16(300), []byte{50, 10, 37, 2, 2}, uint8(0), uint16(7), uint64(0), uint64(5))
	f.Add(uint64(2), uint8(1), uint16(1), []byte{}, uint8(0), uint16(0), uint64(0), uint64(1))
	f.Add(uint64(3), uint8(9), uint16(500), []byte{0, 0, 0, 0, 255}, uint8(3), uint16(99), uint64(0xffff), uint64(2))
	f.Add(uint64(4), uint8(12), uint16(800), []byte{1, 1, 1, 1, 1}, uint8(5), uint16(300), uint64(0x5a5a5a), uint64(3))
	f.Add(uint64(5), uint8(3), uint16(40), []byte{0, 0, 255, 0, 0, 7}, uint8(1), uint16(4), uint64(1<<63|7), uint64(4))
	f.Fuzz(func(t *testing.T, seed uint64, procs uint8, sites uint16, mix []byte, entry uint8, custom uint16, edges, splitSeed uint64) {
		gc := GenConfig{
			Procs:          1 + int(procs%16),
			StaticBranches: 1 + int(sites%1000),
			Base:           seed % 4096,
		}
		if len(mix) >= 5 {
			gc.Mix = BehaviorMix{
				StronglyBiased: float64(mix[0]),
				WeaklyBiased:   float64(mix[1]),
				Correlated:     float64(mix[2]),
				Random:         float64(mix[3]),
				Alternating:    float64(mix[4]),
			}
		}
		if len(mix) >= 6 {
			gc.MaxHistBits = 1 + uint(mix[5]%63)
		}
		prog, err := Generate(gc, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := prog.Validate(); err != nil {
			t.Fatal(err)
		}
		// GenerateWalker builds the same program in a reused arena.
		want := NewWalker(prog, seed).Emit(nil, 3000)
		for i, b := range GenerateWalker(gc, seed, seed).Emit(nil, 3000) {
			if b != want[i] {
				t.Fatalf("GenerateWalker record %d: %+v, want %+v", i, b, want[i])
			}
		}
		prog.Entry = int(entry) % len(prog.Procs)

		// Plant edge cases: each set bit of edges picks a site or a loop.
		pick := rng.NewXoshiro256(edges)
		all := prog.Sites()
		for i := 0; i < 32; i++ {
			if edges>>i&1 != 0 {
				all[pick.Intn(len(all))].Behavior = edgeBehaviors[pick.Intn(len(edgeBehaviors))]
			}
		}
		if ls := loops(prog); len(ls) > 0 {
			for i := 32; i < 64; i++ {
				if edges>>i&1 != 0 {
					ls[pick.Intn(len(ls))].Trips = edgeTrips[pick.Intn(len(edgeTrips))]
				}
			}
		}
		all[int(custom)%len(all)].Behavior = scrambled{mask: seed | 1}

		diffWalkers(t, prog, seed^0x9e3779b97f4a7c15, 30000, rng.NewXoshiro256(splitSeed))
	})
}

// TestWalkerEdgeCasesMatchReference: a hand-built program with every
// edge behaviour and trip distribution, arms that compile to nothing,
// Else-only arms, nested arms ending together, calls into empty
// procedures and an entry procedure that is not procedure 0.
func TestWalkerEdgeCasesMatchReference(t *testing.T) {
	b := NewBuilder(0x40)
	unreachable := b.NewSite(Biased{P: 0.5})
	b.AddProc("unreachable", []Node{&If{Site: unreachable}, b.NewCall(2)})

	var body []Node
	for _, beh := range edgeBehaviors {
		inner := b.NewSite(Biased{P: 0.7})
		body = append(body,
			&If{Site: b.NewSite(beh), Then: []Node{b.NewBlock(2)}},
			&If{Site: b.NewSite(beh), Else: []Node{&If{Site: inner, Else: []Node{b.NewJump()}}}},
			&If{Site: b.NewSite(beh), Then: []Node{b.NewJump()}, Else: []Node{b.NewBlock(1)}},
		)
	}
	for _, td := range edgeTrips {
		back := b.NewSite(Biased{P: 1})
		in := b.NewSite(Alternating{Period: 3})
		body = append(body, &Loop{Site: back, Trips: td, Body: []Node{
			&If{Site: in, Then: []Node{b.NewCall(3)}, Else: []Node{b.NewCall(2)}},
		}})
		body = append(body, &Loop{Site: b.NewSite(Biased{P: 1}), Trips: td})
	}
	body = append(body, b.NewCall(2), b.NewJump())
	b.AddProc("main", body)
	b.AddProc("empty", nil)
	leaf := b.NewSite(scrambled{mask: 0b101})
	b.AddProc("leaf", []Node{&If{Site: leaf, Then: []Node{&If{Site: leaf}}}})
	prog, err := b.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	diffWalkers(t, prog, 11, 200000, rng.NewXoshiro256(1))
}

// TestWalkerPanicsWhenGeometricDoes: a loop whose trip tail has an
// infinite mean asks Geometric for p == 0, which panics. The compiled
// walker must build, and panic as the reference does only when the
// loop runs.
func TestWalkerPanicsWhenGeometricDoes(t *testing.T) {
	b := NewBuilder(0)
	first := b.NewSite(Biased{P: 1})
	loop := &Loop{Site: b.NewSite(Biased{P: 1}), Trips: TripDist{Min: 1, MeanExtra: math.Inf(1)}}
	b.AddProc("main", []Node{&If{Site: first}, loop})
	prog, err := b.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	w, ref := NewWalker(prog, 1), newRefWalker(prog, 1)
	if got, want := mustNext(t, w.Next), mustNext(t, ref.Next); got != want {
		t.Fatalf("first record %+v, reference %+v", got, want)
	}
	want := panicOf(func() { ref.Next() })
	if want == "" {
		t.Fatal("reference did not panic")
	}
	if got := panicOf(func() { w.Next() }); got != want {
		t.Fatalf("panic %q, reference %q", got, want)
	}
}

// TestWalkerDepthBound: a program nested deeper than maxDepth panics
// with the depth message instead of growing its stack without bound.
func TestWalkerDepthBound(t *testing.T) {
	b := NewBuilder(0)
	var body []Node
	for i := 0; i < maxDepth+8; i++ {
		body = []Node{&Loop{Site: b.NewSite(Biased{P: 1}), Trips: TripDist{Min: 1}, Body: body}}
	}
	b.AddProc("main", body)
	prog, err := b.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	for name, next := range map[string]func() (trace.Branch, error){
		"compiled": NewWalker(prog, 1).Next, "reference": newRefWalker(prog, 1).Next,
	} {
		if got := panicOf(func() { next() }); !strings.Contains(got, "walker stack exceeded") {
			t.Errorf("%s: panic %q, want the depth bound", name, got)
		}
	}
}

func mustNext(t *testing.T, next func() (trace.Branch, error)) trace.Branch {
	t.Helper()
	b, err := next()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// panicOf runs f and returns what it panicked with, or "".
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestWalkerKeepsOnlyCompiledOps: the walker holds 32-byte ops in a
// slice sized to the program, without the quarter or more of slack an
// overestimate (or a regrowth) would leave.
func TestWalkerKeepsOnlyCompiledOps(t *testing.T) {
	if size := unsafe.Sizeof(op{}); size > 32 {
		t.Errorf("op is %d bytes, want at most 32", size)
	}
	for seed := uint64(0); seed < 20; seed++ {
		prog, err := Generate(GenConfig{Procs: 1 + int(seed), StaticBranches: 50 + 300*int(seed)}, seed)
		if err != nil {
			t.Fatal(err)
		}
		if w := NewWalker(prog, 1); cap(w.ops) > len(w.ops)*5/4 {
			t.Errorf("seed %d: %d ops in a slice of capacity %d", seed, len(w.ops), cap(w.ops))
		}
	}
}
