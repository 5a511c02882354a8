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
)

// TaggedDM is a direct-mapped tagged table: entry i remembers the last
// information vector that mapped to i under the given index function.
type TaggedDM struct {
	fn       indexfn.Func
	tags     []uint64
	valid    []bool
	accesses int
	misses   int
}

// NewTaggedDM returns a tagged direct-mapped table mirroring a
// predictor table that uses fn.
func NewTaggedDM(fn indexfn.Func) *TaggedDM {
	n := 1 << fn.Bits()
	return &TaggedDM{fn: fn, tags: make([]uint64, n), valid: make([]bool, n)}
}

// Observe records a reference and reports whether it aliased (the
// entry held a different vector, or was empty — i.e. a "miss").
func (t *TaggedDM) Observe(addr, hist uint64) bool {
	v := indexfn.Vector(addr, hist, t.fn.HistoryBits())
	i := t.fn.Index(addr, hist)
	t.accesses++
	if t.valid[i] && t.tags[i] == v {
		return false
	}
	t.valid[i] = true
	t.tags[i] = v
	t.misses++
	return true
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
// The recency list is threaded through per-ID slots (see Interner), so
// a reference costs one interner probe and O(1) slice work.
type TaggedFA struct {
	in       *Interner
	lru      idLRU
	histBits uint
	accesses int
	misses   int
}

// NewTaggedFA returns an n-entry fully-associative LRU tagged table
// keyed by (address, k-bit history).
func NewTaggedFA(entries int, histBits uint) *TaggedFA {
	return newTaggedFA(entries, histBits, NewInterner(entries))
}

func newTaggedFA(entries int, histBits uint, in *Interner) *TaggedFA {
	if entries <= 0 {
		panic(fmt.Sprintf("alias: capacity %d must be positive", entries))
	}
	return &TaggedFA{in: in, lru: idLRU{capacity: entries, head: -1, tail: -1}, histBits: histBits}
}

// Observe records a reference and reports whether it missed.
func (t *TaggedFA) Observe(addr, hist uint64) bool {
	id, _ := t.in.ID(indexfn.Vector(addr, hist, t.histBits))
	return t.observeID(id)
}

func (t *TaggedFA) observeID(id int32) bool {
	t.accesses++
	if t.lru.touch(id) {
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
func (t *TaggedFA) Entries() int { return t.lru.capacity }

// idLRU is a fixed-capacity LRU set over dense IDs: a doubly-linked
// recency list whose links live in per-ID slots (-1 ends the list;
// notResident marks an ID outside the set).
type idLRU struct {
	prev, next []int32
	capacity   int
	size       int
	head, tail int32 // most and least recently used
}

const notResident = -2

// touch inserts id as most recently used, evicting the least recently
// used ID when full, or refreshes it; it reports whether id was
// resident.
func (l *idLRU) touch(id int32) bool {
	if int(id) >= len(l.prev) {
		l.prev = growIDs(l.prev, id, notResident)
		l.next = growIDs(l.next, id, notResident)
	}
	if l.prev[id] != notResident {
		if l.head != id {
			l.unlink(id)
			l.pushFront(id)
		}
		return true
	}
	if l.size == l.capacity {
		victim := l.tail
		l.unlink(victim)
		l.prev[victim], l.next[victim] = notResident, notResident
	} else {
		l.size++
	}
	l.pushFront(id)
	return false
}

func (l *idLRU) unlink(id int32) {
	p, n := l.prev[id], l.next[id]
	if p >= 0 {
		l.next[p] = n
	} else {
		l.head = n
	}
	if n >= 0 {
		l.prev[n] = p
	} else {
		l.tail = p
	}
}

func (l *idLRU) pushFront(id int32) {
	l.prev[id] = -1
	l.next[id] = l.head
	if l.head >= 0 {
		l.prev[l.head] = id
	} else {
		l.tail = id
	}
	l.head = id
}

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
// One interner serves the FA table and the first-use detector, so a
// reference pays a single hash probe.
type Classifier struct {
	dm   *TaggedDM
	fa   *TaggedFA
	in   *Interner
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
	in := NewInterner(1 << fn.Bits())
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
	dmMiss := c.dm.Observe(addr, hist)
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
