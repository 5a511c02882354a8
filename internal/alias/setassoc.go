package alias

import (
	"fmt"

	"gskew/internal/indexfn"
)

// TaggedSA is a set-associative tagged table with per-set LRU
// replacement — the classical conflict remedy the paper weighs against
// skewing in section 3.3 (and rejects for predictor tables because of
// the tag cost). Measuring its miss ratios quantifies exactly how much
// conflict aliasing each degree of associativity would remove, which
// is the bar the tag-free skewed organisation has to clear.
//
// Like TaggedDM, the table is keyed by dense vector IDs (see
// indexfn.Interner): it computes each ID's set once, on the ID's first
// reference, and stores ID+1 as a way's tag (0 marks an empty way).
type TaggedSA struct {
	fn       indexfn.Func
	ways     int
	in       *indexfn.Interner // owned interner behind Observe (nil until used)
	set      []int32           // ID -> first way slot of its set, -1 until computed
	tags     []int32           // sets x ways: ID+1 of the way's vector
	age      []uint32          // per-way LRU clock value
	clock    uint32
	accesses int
	misses   int
}

// NewTaggedSA returns a tagged table of 2^fn.Bits() sets with the
// given associativity. Total capacity is sets x ways entries.
func NewTaggedSA(fn indexfn.Func, ways int) *TaggedSA {
	if ways < 1 || ways > 64 {
		panic(fmt.Sprintf("alias: associativity %d out of range [1,64]", ways))
	}
	n := (1 << fn.Bits()) * ways
	return &TaggedSA{
		fn:   fn,
		ways: ways,
		tags: make([]int32, n),
		age:  make([]uint32, n),
	}
}

// Observe records a reference and reports whether it missed (the set
// did not hold the reference's vector). A table is fed either through
// Observe, which interns through the table's own interner, or through
// ObserveID and ObserveIDs with IDs a caller has interned, never both.
func (t *TaggedSA) Observe(addr, hist uint64) bool {
	if t.in == nil {
		t.in = indexfn.NewInterner(len(t.tags))
	}
	id, _ := t.in.ID(indexfn.Vector(addr, hist, t.fn.HistoryBits()))
	return t.ObserveID(id, addr, hist)
}

// ObserveID records a reference to the vector with dense ID id, whose
// (address, history) is (addr, hist), and reports whether it missed.
// The address and history are read only on the ID's first reference.
func (t *TaggedSA) ObserveID(id int32, addr, hist uint64) bool {
	if int(id) >= len(t.set) {
		t.set = indexfn.GrowIDs(t.set, id, -1)
	}
	if t.set[id] < 0 {
		t.set[id] = int32(t.fn.Index(addr, hist)) * int32(t.ways)
	}
	return t.touch(int(t.set[id]), id+1)
}

// ObserveIDs records a whole interned reference stream: ids holds the
// references in order, and addrs[id], hists[id] the (address, history)
// of each ID. It is ObserveID over ids, with every ID's set computed up
// front.
func (t *TaggedSA) ObserveIDs(ids []int32, addrs, hists []uint64) {
	if len(addrs) > len(t.set) {
		t.set = indexfn.GrowIDs(t.set, int32(len(addrs)-1), -1)
	}
	for id, addr := range addrs {
		if t.set[id] < 0 {
			t.set[id] = int32(t.fn.Index(addr, hists[id])) * int32(t.ways)
		}
	}
	for _, id := range ids {
		t.touch(int(t.set[id]), id+1)
	}
}

// touch references tag in the set whose first way is slot set,
// reporting a miss.
func (t *TaggedSA) touch(set int, tag int32) bool {
	t.accesses++
	t.clock++
	ways := t.tags[set : set+t.ways]
	age := t.age[set : set+t.ways]
	for w, g := range ways {
		if g == tag {
			age[w] = t.clock
			return false
		}
	}
	// Miss: fill an empty way or evict the LRU way.
	t.misses++
	victim := 0
	for w, g := range ways {
		if g == 0 {
			victim = w
			break
		}
		if age[w] < age[victim] {
			victim = w
		}
	}
	ways[victim] = tag
	age[victim] = t.clock
	return true
}

// Accesses returns the number of references observed.
func (t *TaggedSA) Accesses() int { return t.accesses }

// Misses returns the miss count.
func (t *TaggedSA) Misses() int { return t.misses }

// MissRatio returns misses per access.
func (t *TaggedSA) MissRatio() float64 {
	if t.accesses == 0 {
		return 0
	}
	return float64(t.misses) / float64(t.accesses)
}

// Entries returns the total capacity (sets x ways).
func (t *TaggedSA) Entries() int { return len(t.tags) }

// Ways returns the associativity.
func (t *TaggedSA) Ways() int { return t.ways }
