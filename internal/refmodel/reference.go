package refmodel

import "fmt"

// --- the reference predictors (Table 2, Figure 8) ------------------
//
// The two reference organisations the paper measures finite tables
// against, written from their definitions: the unaliased predictor,
// in which every (address, history) substream owns a counter, and the
// N-entry fully-associative tagged table with LRU replacement, in
// which only capacity (and compulsory) aliasing remains. Both predict
// taken for a substream they do not hold (the static fallback), and
// both start a substream they begin to hold in the weak state agreeing
// with its first outcome before training it with that outcome.

// freshCounter is the state a newly held substream starts in: the weak
// state agreeing with its first outcome (weakly taken is the lowest
// state predicting taken, weakly not-taken the one just below it).
func freshCounter(bits uint, taken bool) SpecCounter {
	c := NewSpecCounter(bits)
	if !taken {
		c.State--
	}
	return c
}

// SpecUnaliased is the specification of the unaliased (infinite)
// predictor table: a map from information vector to counter automaton.
type SpecUnaliased struct {
	k, ctrBits uint
	ctrs       map[uint64]SpecCounter
}

// NewSpecUnaliased returns the spec of the unaliased table with k
// history bits and ctrBits-wide counters.
func NewSpecUnaliased(k, ctrBits uint) *SpecUnaliased {
	return &SpecUnaliased{k: k, ctrBits: ctrBits, ctrs: make(map[uint64]SpecCounter)}
}

// Predict implements Spec.
func (u *SpecUnaliased) Predict(addr, hist uint64) bool {
	c, ok := u.ctrs[Vector(addr, hist, u.k)]
	return !ok || c.Predict()
}

// Update implements Spec.
func (u *SpecUnaliased) Update(addr, hist uint64, taken bool) {
	v := Vector(addr, hist, u.k)
	c, ok := u.ctrs[v]
	if !ok {
		c = freshCounter(u.ctrBits, taken)
	}
	u.ctrs[v] = c.Update(taken)
}

// Name implements Spec.
func (u *SpecUnaliased) Name() string { return "spec-unaliased" }

// HistoryBits implements Spec.
func (u *SpecUnaliased) HistoryBits() uint { return u.k }

// SpecAssocLRU is the specification of the fully-associative LRU
// tagged predictor: a list of (vector, counter) entries ordered from
// most to least recently updated. Prediction reads an entry without
// reordering; an update moves its entry to the front, or inserts a
// fresh entry there and, past capacity, drops the entry at the tail.
type SpecAssocLRU struct {
	entries    int
	k, ctrBits uint
	list       []specLRUEntry // list[0] is the most recently used
}

type specLRUEntry struct {
	vec uint64
	ctr SpecCounter
}

// NewSpecAssocLRU returns the spec of an entries-entry
// fully-associative LRU table with k history bits and ctrBits-wide
// counters.
func NewSpecAssocLRU(entries int, k, ctrBits uint) *SpecAssocLRU {
	if entries < 1 {
		panic(fmt.Sprintf("refmodel: assoc-lru needs at least one entry, got %d", entries))
	}
	return &SpecAssocLRU{entries: entries, k: k, ctrBits: ctrBits}
}

// find returns the position of v in the list, or -1.
func (a *SpecAssocLRU) find(v uint64) int {
	for i, e := range a.list {
		if e.vec == v {
			return i
		}
	}
	return -1
}

// Predict implements Spec.
func (a *SpecAssocLRU) Predict(addr, hist uint64) bool {
	i := a.find(Vector(addr, hist, a.k))
	return i < 0 || a.list[i].ctr.Predict()
}

// Update implements Spec.
func (a *SpecAssocLRU) Update(addr, hist uint64, taken bool) {
	v := Vector(addr, hist, a.k)
	e := specLRUEntry{vec: v, ctr: freshCounter(a.ctrBits, taken)}
	if i := a.find(v); i >= 0 {
		e = a.list[i]
		a.list = append(a.list[:i], a.list[i+1:]...)
	}
	e.ctr = e.ctr.Update(taken)
	a.list = append([]specLRUEntry{e}, a.list...)
	if len(a.list) > a.entries {
		a.list = a.list[:a.entries]
	}
}

// Name implements Spec.
func (a *SpecAssocLRU) Name() string { return "spec-assoc-lru" }

// HistoryBits implements Spec.
func (a *SpecAssocLRU) HistoryBits() uint { return a.k }
