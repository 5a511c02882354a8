package predictor

import (
	"fmt"

	"gskew/internal/counter"
	"gskew/internal/indexfn"
	"gskew/internal/lru"
)

// This file keeps the vector-keyed fully-associative LRU predictor
// that AssocLRU replaced. It keeps its counters under raw vectors in
// an lru.Cache (a Go map under a container/list), so it shares no
// per-ID state layout with AssocLRU and serves as the independent
// reference FuzzAssocLRUDense diffs it against.

// cacheAssocLRU is an N-entry fully-associative tagged predictor table with
// LRU replacement, the hardware-infeasible reference of Figure 8:
// conflict aliasing is eliminated entirely; only capacity (and
// compulsory) aliasing remains. Missing pairs fall back to a static
// always-taken prediction, as in the paper's experiment.
type cacheAssocLRU struct {
	cache    *lru.Cache[uint64, uint8] // vector -> counter state
	entries  int
	histBits uint
	ctrBits  uint
}

// newCacheAssocLRU returns an N-entry fully-associative LRU predictor keyed
// by (address, k-bit history) with counterBits-wide automata.
func newCacheAssocLRU(entries int, k, counterBits uint) *cacheAssocLRU {
	if counterBits == 0 {
		counterBits = 2
	}
	return &cacheAssocLRU{
		cache:    lru.NewCache[uint64, uint8](entries),
		entries:  entries,
		histBits: k,
		ctrBits:  counterBits,
	}
}

// Predict implements Predictor. A miss predicts taken (static
// fallback). Prediction does not touch recency: only Update does,
// mirroring how the paper counts one reference per dynamic branch.
func (a *cacheAssocLRU) Predict(addr, hist uint64) bool {
	raw, ok := a.cache.Peek(indexfn.Vector(addr, hist, a.histBits))
	if !ok {
		return true
	}
	return counter.New(a.ctrBits, raw).Predict()
}

// Update implements Predictor. It inserts missing pairs (possibly
// evicting the LRU pair) and trains the counter.
func (a *cacheAssocLRU) Update(addr, hist uint64, taken bool) {
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

// Step implements Stepper: a Get and a Put replace the Peek/Get/Put
// triple of separate Predict and Update calls. The recency outcome is
// identical — Predict never touches recency, and Update's net effect
// is one touch-or-insert — so the eviction sequence matches the
// two-call path exactly.
func (a *cacheAssocLRU) Step(addr, hist uint64, taken bool) bool {
	v := indexfn.Vector(addr, hist, a.histBits)
	raw, hit := a.cache.Get(v)
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
	a.cache.Put(v, c.Update(taken).Value())
	return pred
}

// Seen implements FirstUseTracker relative to current residency: a
// pair evicted and re-fetched counts as unseen again, which is exactly
// the capacity-aliasing semantics of the tagged-table experiments.
func (a *cacheAssocLRU) Seen(addr, hist uint64) bool {
	_, ok := a.cache.Peek(indexfn.Vector(addr, hist, a.histBits))
	return ok
}

// Name implements Predictor.
func (a *cacheAssocLRU) Name() string { return "assoc-lru" }

// HistoryBits implements Predictor.
func (a *cacheAssocLRU) HistoryBits() uint { return a.histBits }

// StorageBits implements Predictor: counter bits only, matching how
// the paper compares it against tag-less tables (the tags are the
// point of the comparison and are costed separately in section 3.3).
func (a *cacheAssocLRU) StorageBits() int { return a.entries * int(a.ctrBits) }

// Reset implements Predictor.
func (a *cacheAssocLRU) Reset() { a.cache = lru.NewCache[uint64, uint8](a.entries) }

// Entries returns the table capacity.
func (a *cacheAssocLRU) Entries() int { return a.entries }

// String describes the configuration.
func (a *cacheAssocLRU) String() string {
	return fmt.Sprintf("%s-assoc-lru(h%d,%dbit)", fmtEntries(a.entries), a.histBits, a.ctrBits)
}
