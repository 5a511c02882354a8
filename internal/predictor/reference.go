package predictor

import (
	"fmt"

	"gskew/internal/counter"
	"gskew/internal/indexfn"
	"gskew/internal/lru"
)

// Unaliased is the ideal infinite predictor table: every (address,
// history) substream gets a private counter. It bounds every finite
// organisation from below and provides the intrinsic (aliasing-free)
// misprediction rate of Table 2.
//
// Unaliased implements FirstUseTracker so the runner can exclude
// compulsory references from misprediction accounting, as the paper
// does.
type Unaliased struct {
	// subs interns each substream's vector to its counter's slot, in
	// first-training order; the counters themselves live in a slice,
	// so a hit costs one open-addressed probe and trains its counter
	// in place.
	subs     *indexfn.Interner
	counters []counter.Counter
	histBits uint
	ctrBits  uint

	// Memoised lookup for the Seen/Predict/Update sequence the runner
	// makes per branch: one probe serves all three. Slots never move,
	// so the memo survives training; Reset invalidates it.
	lastVec uint64
	lastIdx int32 // slot of lastVec, or -1 while it is unseen
	lookOK  bool

	strongStart bool // planted fault, see TamperUnaliasedStrongStart
}

// NewUnaliased returns an infinite table of counterBits-wide automata
// keyed by (address, k-bit history).
func NewUnaliased(k, counterBits uint) *Unaliased {
	if counterBits == 0 {
		counterBits = 2
	}
	return &Unaliased{
		subs:     indexfn.NewInterner(0),
		histBits: k,
		ctrBits:  counterBits,
	}
}

// lookup probes the substream table, reusing the memoised probe when
// the reference repeats (the Seen/Predict/Update pattern of the
// runner). It returns the vector and its counter slot, or -1 for an
// unseen one.
func (u *Unaliased) lookup(addr, hist uint64) (uint64, int32) {
	v := indexfn.Vector(addr, hist, u.histBits)
	if u.lookOK && u.lastVec == v {
		return v, u.lastIdx
	}
	idx := u.subs.Lookup(v)
	u.lastVec, u.lastIdx, u.lookOK = v, idx, true
	return v, idx
}

// insert allocates the slot of a fresh substream, first trained with
// taken. The counter starts from the weak state agreeing with the
// first outcome, the convention the paper's "do not count the first
// occurrence" methodology implies.
func (u *Unaliased) insert(v uint64, taken bool) {
	c := counter.WeaklyNotTaken(u.ctrBits)
	switch {
	case u.strongStart:
		c = counter.New(u.ctrBits, uint8(1)<<u.ctrBits-1)
	case taken:
		c = counter.WeaklyTaken(u.ctrBits)
	}
	idx, _ := u.subs.ID(v) // == len(u.counters): slots follow first training
	u.counters = append(u.counters, c.Update(taken))
	u.lastVec, u.lastIdx, u.lookOK = v, idx, true
}

// Predict implements Predictor. Unknown substreams predict taken (the
// static fallback); the runner normally filters these out via Seen.
func (u *Unaliased) Predict(addr, hist uint64) bool {
	_, idx := u.lookup(addr, hist)
	if idx < 0 {
		return true
	}
	return u.counters[idx].Predict()
}

// Update implements Predictor.
func (u *Unaliased) Update(addr, hist uint64, taken bool) {
	v, idx := u.lookup(addr, hist)
	if idx < 0 {
		u.insert(v, taken)
		return
	}
	u.counters[idx] = u.counters[idx].Update(taken)
}

// Slot returns the substream's counter slot — its dense ID, in order
// of first training — or -1 while the substream is untrained.
func (u *Unaliased) Slot(addr, hist uint64) int32 {
	_, idx := u.lookup(addr, hist)
	return idx
}

// Seen implements FirstUseTracker.
func (u *Unaliased) Seen(addr, hist uint64) bool {
	_, idx := u.lookup(addr, hist)
	return idx >= 0
}

// Step implements Stepper: one probe (often pre-warmed by Seen)
// serves prediction and training.
func (u *Unaliased) Step(addr, hist uint64, taken bool) bool {
	v, idx := u.lookup(addr, hist)
	if idx < 0 {
		u.insert(v, taken)
		return true
	}
	c := &u.counters[idx]
	pred := c.Predict()
	*c = c.Update(taken)
	return pred
}

// Name implements Predictor.
func (u *Unaliased) Name() string { return "unaliased" }

// HistoryBits implements Predictor.
func (u *Unaliased) HistoryBits() uint { return u.histBits }

// StorageBits implements Predictor. For the infinite table this is the
// storage a real table would need for the substreams seen so far.
func (u *Unaliased) StorageBits() int { return len(u.counters) * int(u.ctrBits) }

// Reset implements Predictor.
func (u *Unaliased) Reset() {
	u.subs.Reset()
	u.counters = u.counters[:0]
	u.lookOK = false
}

// Substreams returns the number of distinct (address, history) pairs
// observed.
func (u *Unaliased) Substreams() int { return len(u.counters) }

// String describes the configuration.
func (u *Unaliased) String() string {
	return fmt.Sprintf("unaliased(h%d,%dbit)", u.histBits, u.ctrBits)
}

// TamperUnaliasedStrongStart plants an initial-state fault into p: a
// fresh substream's counter starts strongly taken instead of in the
// weak state agreeing with its first outcome. It exists for the
// differential harness's fault-injection selftest and reports whether
// p is an Unaliased table.
func TamperUnaliasedStrongStart(p Predictor) bool {
	u, ok := p.(*Unaliased)
	if ok {
		u.strongStart = true
	}
	return ok
}

// AssocLRU is an N-entry fully-associative tagged predictor table with
// LRU replacement, the hardware-infeasible reference of Figure 8:
// conflict aliasing is eliminated entirely; only capacity (and
// compulsory) aliasing remains. Missing pairs fall back to a static
// always-taken prediction, as in the paper's experiment.
//
// Vectors are interned to dense IDs (indexfn.Interner); the recency
// list is an lru.IDSet over them and each ID's counter lives in a
// slice slot, meaningful while the ID is resident.
type AssocLRU struct {
	in       *indexfn.Interner
	lru      *lru.IDSet
	counters []counter.Counter
	histBits uint
	ctrBits  uint
}

// NewAssocLRU returns an N-entry fully-associative LRU predictor keyed
// by (address, k-bit history) with counterBits-wide automata.
func NewAssocLRU(entries int, k, counterBits uint) *AssocLRU {
	if counterBits == 0 {
		counterBits = 2
	}
	return &AssocLRU{
		in:       indexfn.NewInterner(entries),
		lru:      lru.NewIDSet(entries),
		histBits: k,
		ctrBits:  counterBits,
	}
}

// resident returns the ID of a resident pair, or -1.
func (a *AssocLRU) resident(addr, hist uint64) int32 {
	id := a.in.Lookup(indexfn.Vector(addr, hist, a.histBits))
	if id < 0 || !a.lru.Contains(id) {
		return -1
	}
	return id
}

// Predict implements Predictor. A miss predicts taken (static
// fallback). Prediction does not touch recency: only Update does,
// mirroring how the paper counts one reference per dynamic branch.
func (a *AssocLRU) Predict(addr, hist uint64) bool {
	id := a.resident(addr, hist)
	if id < 0 {
		return true
	}
	return a.counters[id].Predict()
}

// Update implements Predictor. It inserts missing pairs (possibly
// evicting the LRU pair) and trains the counter.
func (a *AssocLRU) Update(addr, hist uint64, taken bool) {
	a.Step(addr, hist, taken)
}

// Step implements Stepper: it predicts as Predict and trains as
// Update with one interner probe and one recency touch. Predict never
// touches recency, so the eviction sequence matches the two-call path
// exactly.
func (a *AssocLRU) Step(addr, hist uint64, taken bool) bool {
	id, _ := a.in.ID(indexfn.Vector(addr, hist, a.histBits))
	if int(id) == len(a.counters) { // IDs arrive in first-use order
		a.counters = append(a.counters, counter.Counter{})
	}
	c := &a.counters[id]
	pred := true
	switch {
	case a.lru.Touch(id):
		pred = c.Predict()
	case taken:
		*c = counter.WeaklyTaken(a.ctrBits)
	default:
		*c = counter.WeaklyNotTaken(a.ctrBits)
	}
	*c = c.Update(taken)
	return pred
}

// Seen implements FirstUseTracker relative to current residency: a
// pair evicted and re-fetched counts as unseen again, which is exactly
// the capacity-aliasing semantics of the tagged-table experiments.
func (a *AssocLRU) Seen(addr, hist uint64) bool { return a.resident(addr, hist) >= 0 }

// Name implements Predictor.
func (a *AssocLRU) Name() string { return "assoc-lru" }

// HistoryBits implements Predictor.
func (a *AssocLRU) HistoryBits() uint { return a.histBits }

// StorageBits implements Predictor: counter bits only, matching how
// the paper compares it against tag-less tables (the tags are the
// point of the comparison and are costed separately in section 3.3).
func (a *AssocLRU) StorageBits() int { return a.lru.Capacity() * int(a.ctrBits) }

// Reset implements Predictor.
func (a *AssocLRU) Reset() {
	a.in.Reset()
	a.lru.Reset()
	a.counters = a.counters[:0]
}

// Entries returns the table capacity.
func (a *AssocLRU) Entries() int { return a.lru.Capacity() }

// String describes the configuration.
func (a *AssocLRU) String() string {
	return fmt.Sprintf("%s-assoc-lru(h%d,%dbit)", fmtEntries(a.lru.Capacity()), a.histBits, a.ctrBits)
}

// TamperAssocLRUEvictMRU plants a replacement fault into p: a full
// table evicts its most recently used pair instead of the least. It
// exists for the differential harness's fault-injection selftest and
// reports whether p is an AssocLRU table.
func TamperAssocLRUEvictMRU(p Predictor) bool {
	a, ok := p.(*AssocLRU)
	if ok {
		lru.TamperEvictMRU(a.lru)
	}
	return ok
}
