package lru

import (
	"slices"
	"testing"
	"testing/quick"

	"gskew/internal/rng"
)

func TestSetEvictionOrder(t *testing.T) {
	c := NewCache[uint64, string](3)
	c.Put(1, "a")
	c.Put(2, "b")
	c.Put(3, "c")
	// Refresh 1 so the LRU key is 2.
	c.Get(1)
	evicted, did := c.Put(4, "d")
	if !did || evicted != 2 {
		t.Errorf("evicted %d (did=%v), want 2", evicted, did)
	}
	if got, want := cacheKeys(c), []uint64{4, 1, 3}; !slices.Equal(got, want) {
		t.Fatalf("recency order %v, want %v", got, want)
	}
}

func TestSetPanicsOnBadCapacity(t *testing.T) {
	for _, c := range []int{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCache(%d) did not panic", c)
				}
			}()
			NewCache[uint64, uint64](c)
		}()
	}
}

// cacheKeys returns c's keys from most to least recently used.
func cacheKeys[V any](c *Cache[uint64, V]) []uint64 {
	var out []uint64
	for e := c.ll.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*entry[uint64, V]).key)
	}
	return out
}

// refLRU is a deliberately simple slice-based model used as an oracle.
type refLRU struct {
	keys, vals []uint64 // most recently used first
	cap        int
}

func (r *refLRU) find(k uint64) int { return slices.Index(r.keys, k) }

func (r *refLRU) toFront(i int) {
	k, v := r.keys[i], r.vals[i]
	r.keys = slices.Insert(slices.Delete(r.keys, i, i+1), 0, k)
	r.vals = slices.Insert(slices.Delete(r.vals, i, i+1), 0, v)
}

func (r *refLRU) peek(k uint64) (uint64, bool) {
	if i := r.find(k); i >= 0 {
		return r.vals[i], true
	}
	return 0, false
}

func (r *refLRU) get(k uint64) (uint64, bool) {
	i := r.find(k)
	if i < 0 {
		return 0, false
	}
	r.toFront(i)
	return r.vals[0], true
}

func (r *refLRU) put(k, v uint64) (evicted uint64, did bool) {
	if i := r.find(k); i >= 0 {
		r.vals[i] = v
		r.toFront(i)
		return 0, false
	}
	r.keys = slices.Insert(r.keys, 0, k)
	r.vals = slices.Insert(r.vals, 0, v)
	if len(r.keys) > r.cap {
		evicted = r.keys[len(r.keys)-1]
		r.keys, r.vals = r.keys[:r.cap], r.vals[:r.cap]
		return evicted, true
	}
	return 0, false
}

func (r *refLRU) remove(k uint64) bool {
	i := r.find(k)
	if i >= 0 {
		r.keys = slices.Delete(r.keys, i, i+1)
		r.vals = slices.Delete(r.vals, i, i+1)
	}
	return i >= 0
}

// touch inserts or refreshes k, keeping its value; it reports a hit.
func (r *refLRU) touch(k uint64) bool {
	v, hit := r.peek(k)
	r.put(k, v)
	return hit
}

func TestSetMatchesReferenceModel(t *testing.T) {
	// Property: Cache agrees with a naive model on every Get, Peek, Put
	// (value updates and evictions included) and Remove, and on the
	// full recency order, for random streams.
	f := func(seed uint64, capRaw uint8, n uint16) bool {
		capacity := int(capRaw%32) + 1
		c := NewCache[uint64, uint64](capacity)
		ref := &refLRU{cap: capacity}
		r := rng.NewXoshiro256(seed)
		steps := int(n%2048) + 1
		for i := 0; i < steps; i++ {
			k := r.Uint64n(uint64(capacity * 3)) // force plenty of evictions
			switch op := r.Uint64n(8); {
			case op < 3:
				v1, ok1 := c.Get(k)
				v2, ok2 := ref.get(k)
				if v1 != v2 || ok1 != ok2 {
					return false
				}
			case op < 4:
				v1, ok1 := c.Peek(k)
				v2, ok2 := ref.peek(k)
				if v1 != v2 || ok1 != ok2 {
					return false
				}
			case op < 7:
				v := r.Uint64()
				e1, d1 := c.Put(k, v)
				e2, d2 := ref.put(k, v)
				if d1 != d2 || e1 != e2 {
					return false
				}
			default:
				if c.Remove(k) != ref.remove(k) {
					return false
				}
			}
			if c.Len() != len(ref.keys) {
				return false
			}
		}
		return slices.Equal(cacheKeys(c), ref.keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Despite their names, the TestCache tests check IDSet, which replaced
// a vector-keyed cache as the substrate of the fully-associative LRU
// predictor: the predictor keeps its counters in per-ID slots and asks
// IDSet only for residency (Contains, the old Peek) and recency (Touch,
// the old Get/Put/Fetch).

func TestCacheBasics(t *testing.T) {
	c := NewIDSet(2)
	if c.Capacity() != 2 || c.Len() != 0 {
		t.Fatalf("fresh set: cap=%d len=%d", c.Capacity(), c.Len())
	}
	if c.Contains(1) || c.Contains(100) {
		t.Fatal("empty set contains an ID")
	}
	if c.Touch(1) || c.Touch(2) {
		t.Fatal("first touches must miss")
	}
	if !c.Touch(1) {
		t.Fatal("second touch of 1 must hit")
	}
	// 2 is now LRU; inserting 3 evicts it.
	if c.Touch(3) {
		t.Fatal("touch of 3 must miss")
	}
	if c.Contains(2) {
		t.Fatal("evicted ID still resident")
	}
	if !c.Contains(1) || !c.Contains(3) || c.Len() != 2 {
		t.Fatalf("resident %v, want [3 1]", c.IDs())
	}
}

func TestCachePutUpdatesValue(t *testing.T) {
	// A resident ID touched again is refreshed, not duplicated.
	c := NewIDSet(2)
	c.Touch(1)
	c.Touch(1)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestCachePeekDoesNotRefresh(t *testing.T) {
	c := NewIDSet(2)
	c.Touch(1)
	c.Touch(2)
	c.Contains(1) // must NOT refresh
	c.Touch(3)    // evicts 1 (still LRU)
	if c.Contains(1) {
		t.Error("Contains refreshed recency")
	}
	if !c.Contains(2) {
		t.Error("wrong entry evicted")
	}
}

func TestCacheGetRefreshes(t *testing.T) {
	c := NewIDSet(2)
	c.Touch(1)
	c.Touch(2)
	c.Touch(1) // refreshes 1
	c.Touch(3) // evicts 2
	if !c.Contains(1) {
		t.Error("refreshed entry was evicted")
	}
	if c.Contains(2) {
		t.Error("stale entry survived")
	}
}

func TestCacheReset(t *testing.T) {
	c := NewIDSet(2)
	c.Touch(1)
	c.Reset()
	if c.Len() != 0 || len(c.IDs()) != 0 {
		t.Fatal("Reset did not empty")
	}
	if c.Contains(1) {
		t.Fatal("Reset left IDs behind")
	}
	// Full capacity available again, in fresh recency order.
	c.Touch(5)
	c.Touch(1)
	c.Touch(7)
	if got := c.IDs(); len(got) != 2 || got[0] != 7 || got[1] != 1 {
		t.Fatalf("after refill: %v, want [7 1]", got)
	}
}

func TestIDSetMatchesReferenceModel(t *testing.T) {
	// Property: IDSet agrees with the naive model (and so with Cache) on
	// hit/miss and full recency order for random streams.
	f := func(seed uint64, capRaw uint8, n uint16) bool {
		capacity := int(capRaw%32) + 1
		s := NewIDSet(capacity)
		ref := &refLRU{cap: capacity}
		r := rng.NewXoshiro256(seed)
		steps := int(n%2048) + 1
		for i := 0; i < steps; i++ {
			id := int32(r.Uint64n(uint64(capacity * 3)))
			if s.Touch(id) != ref.touch(uint64(id)) {
				return false
			}
		}
		got := s.IDs()
		if len(got) != len(ref.keys) || s.Len() != len(ref.keys) {
			return false
		}
		for i := range got {
			if uint64(got[i]) != ref.keys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestIDSetEvictMRUFault(t *testing.T) {
	c := NewIDSet(2)
	TamperEvictMRU(c)
	c.Touch(1)
	c.Touch(2)
	c.Touch(3) // evicts 2, the most recent
	if !c.Contains(1) || c.Contains(2) || !c.Contains(3) {
		t.Fatalf("resident %v, want [3 1]", c.IDs())
	}
}

func TestIDSetPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewIDSet(0) did not panic")
		}
	}()
	NewIDSet(0)
}

func BenchmarkIDSetTouch(b *testing.B) {
	s := NewIDSet(1 << 12)
	r := rng.NewXoshiro256(1)
	ids := make([]int32, 1<<16)
	for i := range ids {
		ids[i] = int32(r.Uint64n(1 << 13))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Touch(ids[i&(1<<16-1)])
	}
}
