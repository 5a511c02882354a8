// Package alias implements the paper's aliasing measurement apparatus:
// tagged tables that detect when distinct (address, history) pairs
// share a predictor entry, a fully-associative LRU reference table,
// the three-Cs classification (compulsory / capacity / conflict) built
// from them, and an exact LRU stack-distance (last-use distance)
// profiler used by the analytical model.
//
// The measurement follows section 2: simulate a structure with the
// same entry count and index function as the predictor under study,
// but store the identity of the last (address, history) pair in each
// entry instead of a counter. An access whose stored identity differs
// is an aliasing occurrence — the analogue of a cache miss with a
// one-datum line.
package alias

import (
	"fmt"

	"gskew/internal/indexfn"
	"gskew/internal/lru"
)

// TaggedDM is a direct-mapped tagged table: entry i remembers the last
// information vector that mapped to i under the given index function.
//
// The table is keyed by dense vector IDs (see indexfn.Interner): it
// computes each ID's index once, on the ID's first reference, and
// stores ID+1 as the entry's tag (0 marks an empty entry), so a
// reference costs two slice loads and no index-function call.
type TaggedDM struct {
	fn       indexfn.Func
	in       *indexfn.Interner // owned interner behind Observe (nil until used)
	index    []int32           // ID -> entry, -1 until computed
	tags     []int32           // entry -> ID+1 of the last reference to it
	accesses int
	misses   int
}

// NewTaggedDM returns a tagged direct-mapped table mirroring a
// predictor table that uses fn.
func NewTaggedDM(fn indexfn.Func) *TaggedDM {
	return &TaggedDM{fn: fn, tags: make([]int32, 1<<fn.Bits())}
}

// Observe records a reference and reports whether it aliased (the
// entry held a different vector, or was empty — i.e. a "miss"). A
// table is fed either through Observe, which interns through the
// table's own interner, or through ObserveID and ObserveIDs with IDs a
// caller has interned, never both.
func (t *TaggedDM) Observe(addr, hist uint64) bool {
	if t.in == nil {
		t.in = indexfn.NewInterner(len(t.tags))
	}
	id, _ := t.in.ID(indexfn.Vector(addr, hist, t.fn.HistoryBits()))
	return t.ObserveID(id, addr, hist)
}

// ObserveID records a reference to the vector with dense ID id, whose
// (address, history) is (addr, hist), and reports whether it aliased.
// The address and history are read only on the ID's first reference.
func (t *TaggedDM) ObserveID(id int32, addr, hist uint64) bool {
	if int(id) >= len(t.index) {
		t.index = indexfn.GrowIDs(t.index, id, -1)
	}
	i := t.index[id]
	if i < 0 {
		i = int32(t.fn.Index(addr, hist))
		t.index[id] = i
	}
	t.accesses++
	if t.tags[i] == id+1 {
		return false
	}
	t.tags[i] = id + 1
	t.misses++
	return true
}

// ObserveIDs records a whole interned reference stream: ids holds the
// references in order, and addrs[id], hists[id] the (address, history)
// of each ID. It is ObserveID over ids, with every ID's index computed
// up front.
func (t *TaggedDM) ObserveIDs(ids []int32, addrs, hists []uint64) {
	if len(addrs) > len(t.index) {
		t.index = indexfn.GrowIDs(t.index, int32(len(addrs)-1), -1)
	}
	for id, addr := range addrs {
		if t.index[id] < 0 {
			t.index[id] = int32(t.fn.Index(addr, hists[id]))
		}
	}
	index, tags := t.index, t.tags
	misses := 0
	for _, id := range ids {
		i := index[id]
		if tags[i] != id+1 {
			tags[i] = id + 1
			misses++
		}
	}
	t.accesses += len(ids)
	t.misses += misses
}

// Accesses returns the number of references observed.
func (t *TaggedDM) Accesses() int { return t.accesses }

// Misses returns the number of aliasing occurrences.
func (t *TaggedDM) Misses() int { return t.misses }

// MissRatio returns misses/accesses — the paper's aliasing ratio.
func (t *TaggedDM) MissRatio() float64 {
	if t.accesses == 0 {
		return 0
	}
	return float64(t.misses) / float64(t.accesses)
}

// Entries returns the table size.
func (t *TaggedDM) Entries() int { return len(t.tags) }

// Name describes the table, e.g. "gshare-dm".
func (t *TaggedDM) Name() string { return t.fn.Name() + "-dm" }

// TaggedFA is a fully-associative tagged table with LRU replacement.
// Its miss ratio is compulsory + capacity aliasing; the difference
// between a TaggedDM and a TaggedFA of equal size is conflict aliasing.
//
// The recency list is threaded through per-ID slots (see
// indexfn.Interner and lru.IDSet), so a reference costs one interner
// probe and O(1) slice work.
type TaggedFA struct {
	in       *indexfn.Interner
	lru      *lru.IDSet
	histBits uint
	accesses int
	misses   int
}

// NewTaggedFA returns an n-entry fully-associative LRU tagged table
// keyed by (address, k-bit history).
func NewTaggedFA(entries int, histBits uint) *TaggedFA {
	return newTaggedFA(entries, histBits, indexfn.NewInterner(entries))
}

func newTaggedFA(entries int, histBits uint, in *indexfn.Interner) *TaggedFA {
	if entries <= 0 {
		panic(fmt.Sprintf("alias: capacity %d must be positive", entries))
	}
	return &TaggedFA{in: in, lru: lru.NewIDSet(entries), histBits: histBits}
}

// Observe records a reference and reports whether it missed.
func (t *TaggedFA) Observe(addr, hist uint64) bool {
	id, _ := t.in.ID(indexfn.Vector(addr, hist, t.histBits))
	return t.observeID(id)
}

func (t *TaggedFA) observeID(id int32) bool {
	t.accesses++
	if t.lru.Touch(id) {
		return false
	}
	t.misses++
	return true
}

// Accesses returns the number of references observed.
func (t *TaggedFA) Accesses() int { return t.accesses }

// Misses returns the number of misses.
func (t *TaggedFA) Misses() int { return t.misses }

// MissRatio returns misses/accesses.
func (t *TaggedFA) MissRatio() float64 {
	if t.accesses == 0 {
		return 0
	}
	return float64(t.misses) / float64(t.accesses)
}

// Entries returns the table capacity.
func (t *TaggedFA) Entries() int { return t.lru.Capacity() }

// Classifier decomposes the aliasing of a direct-mapped organisation
// into the three Cs by running, side by side on the same reference
// stream:
//
//   - an infinite tagged table (first-use detector) -> compulsory,
//   - a fully-associative LRU table of equal size  -> + capacity,
//   - the direct-mapped tagged table under study   -> + conflict.
//
// Per reference: compulsory if never seen before; else capacity if the
// FA table missed; else conflict if the DM table missed.
//
// One interner serves all three tables and the first-use detector, so
// a reference pays a single hash probe.
type Classifier struct {
	dm   *TaggedDM
	fa   *TaggedFA
	in   *indexfn.Interner
	cold int
}

// ThreeC holds a three-Cs decomposition, in reference counts.
type ThreeC struct {
	Accesses   int
	Compulsory int
	Capacity   int
	Conflict   int
}

// Total returns all aliasing occurrences (the DM miss count).
func (c ThreeC) Total() int { return c.Compulsory + c.Capacity + c.Conflict }

// Ratio returns a component divided by accesses.
func ratio(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// CompulsoryRatio returns compulsory aliasing per access.
func (c ThreeC) CompulsoryRatio() float64 { return ratio(c.Compulsory, c.Accesses) }

// CapacityRatio returns capacity aliasing per access.
func (c ThreeC) CapacityRatio() float64 { return ratio(c.Capacity, c.Accesses) }

// ConflictRatio returns conflict aliasing per access.
func (c ThreeC) ConflictRatio() float64 { return ratio(c.Conflict, c.Accesses) }

// TotalRatio returns total aliasing per access.
func (c ThreeC) TotalRatio() float64 { return ratio(c.Total(), c.Accesses) }

// String renders the decomposition compactly.
func (c ThreeC) String() string {
	return fmt.Sprintf("3C{n=%d compulsory=%.3f%% capacity=%.3f%% conflict=%.3f%%}",
		c.Accesses, 100*c.CompulsoryRatio(), 100*c.CapacityRatio(), 100*c.ConflictRatio())
}

// NewClassifier builds a classifier for the direct-mapped organisation
// using fn. The FA reference table has the same entry count.
func NewClassifier(fn indexfn.Func) *Classifier {
	in := indexfn.NewInterner(1 << fn.Bits())
	return &Classifier{
		dm: NewTaggedDM(fn),
		fa: newTaggedFA(1<<fn.Bits(), fn.HistoryBits(), in),
		in: in,
	}
}

// RefClass is the per-reference classification returned by Observe.
type RefClass int

// Per-reference classes, in priority order.
const (
	NoAlias RefClass = iota
	Compulsory
	Capacity
	Conflict
)

// Observe classifies one reference against the DM table under study,
// using the priority rule compulsory > capacity > conflict.
func (c *Classifier) Observe(addr, hist uint64) RefClass {
	id, first := c.in.ID(indexfn.Vector(addr, hist, c.dm.fn.HistoryBits()))
	dmMiss := c.dm.ObserveID(id, addr, hist)
	faMiss := c.fa.observeID(id)
	if first {
		c.cold++
	}
	switch {
	case first:
		return Compulsory
	case faMiss:
		return Capacity
	case dmMiss:
		return Conflict
	default:
		return NoAlias
	}
}

// Stats returns the aggregate decomposition, using the standard
// three-Cs identities so that the components sum to the DM table's
// miss count: compulsory = first uses, capacity = FA misses −
// compulsory, conflict = DM misses − FA misses. Conflict can in
// principle be negative over a window (an LRU pathology where the
// direct-mapped table out-performs fully-associative LRU); it is
// reported as measured.
func (c *Classifier) Stats() ThreeC {
	return ThreeC{
		Accesses:   c.dm.Accesses(),
		Compulsory: c.cold,
		Capacity:   c.fa.Misses() - c.cold,
		Conflict:   c.dm.Misses() - c.fa.Misses(),
	}
}

// DM exposes the underlying direct-mapped tagged table.
func (c *Classifier) DM() *TaggedDM { return c.dm }

// FA exposes the underlying fully-associative reference table.
func (c *Classifier) FA() *TaggedFA { return c.fa }
