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
	// ids maps each substream's vector to its counter's slot; the
	// counters themselves live in a slice, so a hit costs one map
	// probe and trains its counter in place.
	ids      map[uint64]int32
	counters []counter.Counter
	histBits uint
	ctrBits  uint
	addrs    map[uint64]struct{} // distinct branch addresses, for substream ratio

	// Memoised lookup for the Seen/Predict/Update sequence the runner
	// issues per branch: one map probe serves all three. Slots never
	// move, so the memo survives training; Reset invalidates it.
	lastVec uint64
	lastIdx int32 // slot of lastVec, or -1 while it is unseen
	lookOK  bool
}

// NewUnaliased returns an infinite table of counterBits-wide automata
// keyed by (address, k-bit history).
func NewUnaliased(k, counterBits uint) *Unaliased {
	if counterBits == 0 {
		counterBits = 2
	}
	return &Unaliased{
		ids:      make(map[uint64]int32),
		histBits: k,
		ctrBits:  counterBits,
		addrs:    make(map[uint64]struct{}),
	}
}

// lookup probes the substream map, reusing the memoised probe when the
// reference repeats (the Seen/Predict/Update pattern of the runner). It
// returns the vector and its counter slot, or -1 for an unseen one.
func (u *Unaliased) lookup(addr, hist uint64) (uint64, int32) {
	v := indexfn.Vector(addr, hist, u.histBits)
	if u.lookOK && u.lastVec == v {
		return v, u.lastIdx
	}
	idx, ok := u.ids[v]
	if !ok {
		idx = -1
	}
	u.lastVec, u.lastIdx, u.lookOK = v, idx, true
	return v, idx
}

// insert allocates the slot of a fresh substream, first trained with
// taken. The counter starts from the weak state agreeing with the
// first outcome, the convention the paper's "do not count the first
// occurrence" methodology implies.
func (u *Unaliased) insert(addr, v uint64, taken bool) {
	u.addrs[addr] = struct{}{}
	c := counter.WeaklyNotTaken(u.ctrBits)
	if taken {
		c = counter.WeaklyTaken(u.ctrBits)
	}
	idx := int32(len(u.counters))
	u.ids[v] = idx
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
		u.insert(addr, v, taken)
		return
	}
	u.counters[idx] = u.counters[idx].Update(taken)
}

// Seen implements FirstUseTracker.
func (u *Unaliased) Seen(addr, hist uint64) bool {
	_, idx := u.lookup(addr, hist)
	return idx >= 0
}

// Step implements Stepper: one map probe (often pre-warmed by Seen)
// serves prediction and training.
func (u *Unaliased) Step(addr, hist uint64, taken bool) bool {
	v, idx := u.lookup(addr, hist)
	if idx < 0 {
		u.insert(addr, v, taken)
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
	clear(u.ids)
	u.counters = u.counters[:0]
	clear(u.addrs)
	u.lookOK = false
}

// Substreams returns the number of distinct (address, history) pairs
// observed.
func (u *Unaliased) Substreams() int { return len(u.counters) }

// Addresses returns the number of distinct branch addresses observed.
func (u *Unaliased) Addresses() int { return len(u.addrs) }

// SubstreamRatio returns substreams per address — Table 2's first
// column. Zero before any update.
func (u *Unaliased) SubstreamRatio() float64 {
	if len(u.addrs) == 0 {
		return 0
	}
	return float64(len(u.counters)) / float64(len(u.addrs))
}

// String describes the configuration.
func (u *Unaliased) String() string {
	return fmt.Sprintf("unaliased(h%d,%dbit)", u.histBits, u.ctrBits)
}

// AssocLRU is an N-entry fully-associative tagged predictor table with
// LRU replacement, the hardware-infeasible reference of Figure 8:
// conflict aliasing is eliminated entirely; only capacity (and
// compulsory) aliasing remains. Missing pairs fall back to a static
// always-taken prediction, as in the paper's experiment.
type AssocLRU struct {
	cache    *lru.Cache
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
		cache:    lru.NewCache(entries),
		histBits: k,
		ctrBits:  counterBits,
	}
}

// Predict implements Predictor. A miss predicts taken (static
// fallback). Prediction does not touch recency: only Update does,
// mirroring how the paper counts one reference per dynamic branch.
func (a *AssocLRU) Predict(addr, hist uint64) bool {
	raw, ok := a.cache.Peek(indexfn.Vector(addr, hist, a.histBits))
	if !ok {
		return true
	}
	return counter.New(a.ctrBits, raw).Predict()
}

// Update implements Predictor. It inserts missing pairs (possibly
// evicting the LRU pair) and trains the counter.
func (a *AssocLRU) Update(addr, hist uint64, taken bool) {
	v := indexfn.Vector(addr, hist, a.histBits)
	raw, ok := a.cache.Get(v) // refreshes recency on hit
	var c counter.Counter
	if ok {
		c = counter.New(a.ctrBits, raw)
	} else if taken {
		c = counter.WeaklyTaken(a.ctrBits)
	} else {
		c = counter.WeaklyNotTaken(a.ctrBits)
	}
	a.cache.Put(v, c.Update(taken).Value())
}

// Step implements Stepper: one recency operation (Fetch+Store) replaces
// the Peek/Get/Put triple of separate Predict and Update calls. The
// recency outcome is identical — Predict never touches recency, and
// Update's net effect is one touch-or-insert — so the eviction sequence
// matches the two-call path exactly.
func (a *AssocLRU) Step(addr, hist uint64, taken bool) bool {
	v := indexfn.Vector(addr, hist, a.histBits)
	raw, hit := a.cache.Fetch(v)
	pred := true
	var c counter.Counter
	if hit {
		c = counter.New(a.ctrBits, raw)
		pred = c.Predict()
	} else if taken {
		c = counter.WeaklyTaken(a.ctrBits)
	} else {
		c = counter.WeaklyNotTaken(a.ctrBits)
	}
	a.cache.Store(v, c.Update(taken).Value())
	return pred
}

// Seen implements FirstUseTracker relative to current residency: a
// pair evicted and re-fetched counts as unseen again, which is exactly
// the capacity-aliasing semantics of the tagged-table experiments.
func (a *AssocLRU) Seen(addr, hist uint64) bool {
	_, ok := a.cache.Peek(indexfn.Vector(addr, hist, a.histBits))
	return ok
}

// Name implements Predictor.
func (a *AssocLRU) Name() string { return "assoc-lru" }

// HistoryBits implements Predictor.
func (a *AssocLRU) HistoryBits() uint { return a.histBits }

// StorageBits implements Predictor: counter bits only, matching how
// the paper compares it against tag-less tables (the tags are the
// point of the comparison and are costed separately in section 3.3).
func (a *AssocLRU) StorageBits() int { return a.cache.Capacity() * int(a.ctrBits) }

// Reset implements Predictor.
func (a *AssocLRU) Reset() { a.cache.Reset() }

// Entries returns the table capacity.
func (a *AssocLRU) Entries() int { return a.cache.Capacity() }

// String describes the configuration.
func (a *AssocLRU) String() string {
	return fmt.Sprintf("%s-assoc-lru(h%d,%dbit)", fmtEntries(a.cache.Capacity()), a.histBits, a.ctrBits)
}
