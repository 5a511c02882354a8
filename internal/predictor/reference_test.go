package predictor

import (
	"fmt"

	"gskew/internal/counter"
	"gskew/internal/indexfn"
	"gskew/internal/lru"
)

// This file keeps the vector-keyed fully-associative LRU predictor
// that AssocLRU replaced, on the lru.Cache it ran on (moved here from
// package lru, its only user). Cache keys its values by the raw vector
// in a Go map and its recency in lru.Set, so it shares no per-ID state
// layout with AssocLRU and serves as the independent reference
// FuzzAssocLRUDense diffs it against.

// Cache is a fixed-capacity LRU map from uint64 keys to uint8 values
// (saturating-counter states in this repository). It backs the
// fully-associative tagged predictor of Figure 8.
type Cache struct {
	set    *lru.Set
	values map[uint64]uint8
}

// NewCache returns an LRU cache with the given capacity (> 0).
func NewCache(capacity int) *Cache {
	return &Cache{
		set:    lru.NewSet(capacity),
		values: make(map[uint64]uint8, capacity),
	}
}

// Capacity returns the maximum number of entries.
func (c *Cache) Capacity() int { return c.set.Capacity() }

// Len returns the current number of entries.
func (c *Cache) Len() int { return c.set.Len() }

// Get returns the value for key and refreshes its recency. ok is false
// on a miss, in which case the cache is unchanged.
func (c *Cache) Get(key uint64) (v uint8, ok bool) {
	if !c.set.Contains(key) {
		return 0, false
	}
	c.set.Touch(key)
	return c.values[key], true
}

// Peek returns the value for key without refreshing recency.
func (c *Cache) Peek(key uint64) (v uint8, ok bool) {
	v, ok = c.values[key]
	return
}

// Fetch touches key as most recently used, inserting it if absent (and
// evicting the LRU entry if needed). It returns the value currently
// stored and whether the key was already present; on a fresh insert the
// value is unspecified until the caller follows up with Store, which it
// must. Fetch+Store fuse the Get+Put pair of a read-modify-write into
// one recency operation.
func (c *Cache) Fetch(key uint64) (v uint8, hit bool) {
	hit, evicted, didEvict := c.set.Touch(key)
	if didEvict {
		delete(c.values, evicted)
	}
	if hit {
		v = c.values[key]
	}
	return v, hit
}

// Store overwrites the value for a key made resident by a preceding
// Fetch, without touching recency.
func (c *Cache) Store(key uint64, v uint8) { c.values[key] = v }

// Put inserts or updates key with value v (as most recently used),
// evicting the LRU entry if needed. It returns the evicted key, if any.
func (c *Cache) Put(key uint64, v uint8) (evicted uint64, didEvict bool) {
	_, evicted, didEvict = c.set.Touch(key)
	if didEvict {
		delete(c.values, evicted)
	}
	c.values[key] = v
	return evicted, didEvict
}

// Reset empties the cache.
func (c *Cache) Reset() {
	c.set.Reset()
	clear(c.values)
}

// cacheAssocLRU is an N-entry fully-associative tagged predictor table with
// LRU replacement, the hardware-infeasible reference of Figure 8:
// conflict aliasing is eliminated entirely; only capacity (and
// compulsory) aliasing remains. Missing pairs fall back to a static
// always-taken prediction, as in the paper's experiment.
type cacheAssocLRU struct {
	cache    *Cache
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
		cache:    NewCache(entries),
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

// Step implements Stepper: one recency operation (Fetch+Store) replaces
// the Peek/Get/Put triple of separate Predict and Update calls. The
// recency outcome is identical — Predict never touches recency, and
// Update's net effect is one touch-or-insert — so the eviction sequence
// matches the two-call path exactly.
func (a *cacheAssocLRU) Step(addr, hist uint64, taken bool) bool {
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
func (a *cacheAssocLRU) StorageBits() int { return a.cache.Capacity() * int(a.ctrBits) }

// Reset implements Predictor.
func (a *cacheAssocLRU) Reset() { a.cache.Reset() }

// Entries returns the table capacity.
func (a *cacheAssocLRU) Entries() int { return a.cache.Capacity() }

// String describes the configuration.
func (a *cacheAssocLRU) String() string {
	return fmt.Sprintf("%s-assoc-lru(h%d,%dbit)", fmtEntries(a.cache.Capacity()), a.histBits, a.ctrBits)
}
