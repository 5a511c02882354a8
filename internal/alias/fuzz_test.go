package alias

import (
	"testing"

	"gskew/internal/indexfn"
	"gskew/internal/predictor"
)

// FuzzAliasDense diffs every dense-ID structure against its map-based
// reference (reference_test.go) on a random small-alphabet stream: each
// input byte is one conditional reference whose low bits pick the
// address, middle bits the history and top bit the outcome, so vectors
// repeat often and small tables overflow. It compares per-reference
// stack distances and the distance histogram, OPT misses at several
// capacities, FA-LRU misses (from the table and from the histogram),
// the ID-keyed direct-mapped and set-associative tables against the
// vector-tagged ones (fed per reference through Observe and ObserveID,
// and as a whole stream through ObserveIDs), the three-Cs
// classification, Unaliased predictions and the interference
// classification.
func FuzzAliasDense(f *testing.F) {
	f.Add(uint8(2), uint8(3), []byte{0, 1, 2, 0, 1, 3, 0x80, 0x81, 0, 2})
	f.Add(uint8(0), uint8(1), []byte{5, 5, 5, 6, 7, 5, 6, 0x85})
	f.Add(uint8(4), uint8(4), []byte{0x10, 0x21, 0x32, 0x43, 0x10, 0x54, 0x65, 0x21, 0xF0, 0x0F})
	// No history, 32 addresses: one set of each associative table
	// overflows with a hit between fills, so replacement order shows.
	f.Add(uint8(0), uint8(4), []byte{0, 2, 4, 6, 0, 8, 0, 2, 4, 0, 8, 0, 12, 0, 4, 0})
	f.Fuzz(func(t *testing.T, hist8, addrBits8 uint8, stream []byte) {
		histBits := uint(hist8 % 5)
		addrBits := uint(addrBits8%5) + 1
		addrMask := uint64(1)<<addrBits - 1
		fn := indexfn.NewGShare(2, histBits)
		caps := []int{1, 2, 3, 5, 8}
		fns := []indexfn.Func{fn, indexfn.NewGSelect(3, histBits), indexfn.NewGShare(1, histBits)}
		dms := make([]*TaggedDM, len(fns))
		idDMs := make([]*TaggedDM, len(fns))
		refDMs := make([]*vecTaggedDM, len(fns))
		for i, f := range fns {
			dms[i], idDMs[i], refDMs[i] = NewTaggedDM(f), NewTaggedDM(f), newVecTaggedDM(f)
		}
		saWays := []int{1, 2, 4}
		sas := make([]*TaggedSA, len(saWays))
		idSAs := make([]*TaggedSA, len(saWays))
		refSAs := make([]*vecTaggedSA, len(saWays))
		for i, w := range saWays {
			f := indexfn.NewGShare(3-uint(i), histBits)
			sas[i], idSAs[i], refSAs[i] = NewTaggedSA(f, w), NewTaggedSA(f, w), newVecTaggedSA(f, w)
		}
		in := indexfn.NewInterner(0)
		var ids []int32
		var addrs, hists []uint64

		sd, ref := NewStackDist(4), newMapStackDist()
		cl, refCl := NewClassifier(fn), newMapClassifier(fn)
		un, refUn := predictor.NewUnaliased(histBits, 2), newMapUnaliased(histBits, 2)
		inf, refInf := NewInterference(fn, 2), newMapInterference(fn, 2)
		fas := make([]*TaggedFA, len(caps))
		refFAs := make([]*mapTaggedFA, len(caps))
		for i, n := range caps {
			fas[i], refFAs[i] = NewTaggedFA(n, histBits), newMapTaggedFA(n, histBits)
		}
		vecs := make([]uint64, 0, len(stream))
		for i, b := range stream {
			addr := uint64(b) & addrMask
			hist := uint64(b>>3) & (1<<histBits - 1)
			taken := b&0x80 != 0
			v := indexfn.Vector(addr, hist, histBits)
			vecs = append(vecs, v)

			id, first := in.ID(v)
			if first {
				addrs, hists = append(addrs, addr), append(hists, hist)
			}
			ids = append(ids, id)
			for j := range fns {
				want := refDMs[j].Observe(addr, hist)
				if got := dms[j].Observe(addr, hist); got != want {
					t.Fatalf("ref %d: %s DM miss %v, reference %v", i, fns[j].Name(), got, want)
				}
				if got := idDMs[j].ObserveID(id, addr, hist); got != want {
					t.Fatalf("ref %d: %s DM miss by ID %v, reference %v", i, fns[j].Name(), got, want)
				}
			}
			for j, w := range saWays {
				want := refSAs[j].Observe(addr, hist)
				if got := sas[j].Observe(addr, hist); got != want {
					t.Fatalf("ref %d: %d-way SA miss %v, reference %v", i, w, got, want)
				}
				if got := idSAs[j].ObserveID(id, addr, hist); got != want {
					t.Fatalf("ref %d: %d-way SA miss by ID %v, reference %v", i, w, got, want)
				}
			}
			if got, want := sd.Observe(v), ref.observe(v); got != want {
				t.Fatalf("ref %d: stack distance %d, reference %d", i, got, want)
			}
			if got, want := cl.Observe(addr, hist), refCl.observe(addr, hist); got != want {
				t.Fatalf("ref %d: class %v, reference %v", i, got, want)
			}
			for j := range caps {
				if got, want := fas[j].Observe(addr, hist), refFAs[j].observe(addr, hist); got != want {
					t.Fatalf("ref %d: %d-entry FA miss %v, reference %v", i, caps[j], got, want)
				}
			}
			if got, want := un.Seen(addr, hist), refUn.seen(addr, hist); got != want {
				t.Fatalf("ref %d: unaliased seen %v, reference %v", i, got, want)
			}
			if got, want := un.Step(addr, hist, taken), refUn.step(addr, hist, taken); got != want {
				t.Fatalf("ref %d: unaliased prediction %v, reference %v", i, got, want)
			}
			if got, want := inf.Observe(addr, hist, taken), refInf.observe(addr, hist, taken); got != want {
				t.Fatalf("ref %d: interference %v, reference %v", i, got, want)
			}
		}

		got, want := sd.Histogram(), ref.histo
		if len(got) != len(want) {
			t.Fatalf("histogram %v, reference %v", got, want)
		}
		for d, c := range want {
			if got[d] != c {
				t.Fatalf("histogram %v, reference %v", got, want)
			}
		}
		if got, want := cl.Stats(), refCl.stats(); got != want {
			t.Fatalf("three Cs %v, reference %v", got, want)
		}
		if un.Substreams() != len(refUn.counters) {
			t.Fatalf("substreams %d, reference %d", un.Substreams(), len(refUn.counters))
		}
		for j, f := range fns {
			stream := NewTaggedDM(f)
			stream.ObserveIDs(ids, addrs, hists)
			want := refDMs[j].misses
			for _, dm := range []*TaggedDM{dms[j], idDMs[j], stream} {
				if dm.Misses() != want || dm.Accesses() != refDMs[j].accesses {
					t.Fatalf("%s DM misses %d/%d, reference %d/%d",
						f.Name(), dm.Misses(), dm.Accesses(), want, refDMs[j].accesses)
				}
			}
		}
		for j, w := range saWays {
			stream := NewTaggedSA(indexfn.NewGShare(3-uint(j), histBits), w)
			stream.ObserveIDs(ids, addrs, hists)
			want := refSAs[j].misses
			for _, sa := range []*TaggedSA{sas[j], idSAs[j], stream} {
				if sa.Misses() != want || sa.Accesses() != refSAs[j].accesses {
					t.Fatalf("%d-way SA misses %d/%d, reference %d/%d",
						w, sa.Misses(), sa.Accesses(), want, refSAs[j].accesses)
				}
			}
		}
		if len(vecs) == 0 {
			return
		}
		opt := NewOptStream(ids, len(addrs))
		for j, n := range caps {
			if got, want := opt.Misses(n), mapOptMisses(vecs, n); got != want {
				t.Fatalf("%d-entry OPT misses %d, reference %d", n, got, want)
			}
			want := refFAs[j].misses
			if got := fas[j].Misses(); got != want {
				t.Fatalf("%d-entry FA misses %d, reference %d", n, got, want)
			}
			if got := sd.MissesAt(n); got != want {
				t.Fatalf("%d-entry FA misses from the histogram %d, reference %d", n, got, want)
			}
		}
	})
}
