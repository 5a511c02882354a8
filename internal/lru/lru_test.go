package lru

import (
	"testing"
	"testing/quick"

	"gskew/internal/rng"
)

func TestSetBasics(t *testing.T) {
	s := NewSet(3)
	if s.Capacity() != 3 || s.Len() != 0 {
		t.Fatalf("fresh set: cap=%d len=%d", s.Capacity(), s.Len())
	}
	hit, _, ev := s.Touch(10)
	if hit || ev {
		t.Fatal("first touch must miss without eviction")
	}
	hit, _, _ = s.Touch(10)
	if !hit {
		t.Fatal("second touch of same key must hit")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestSetEvictionOrder(t *testing.T) {
	s := NewSet(3)
	s.Touch(1)
	s.Touch(2)
	s.Touch(3)
	// Refresh 1 so the LRU key is 2.
	s.Touch(1)
	_, evicted, did := s.Touch(4)
	if !did || evicted != 2 {
		t.Errorf("evicted %d (did=%v), want 2", evicted, did)
	}
	// MRU order should now be 4, 1, 3.
	want := []uint64{4, 1, 3}
	got := s.Keys()
	if len(got) != len(want) {
		t.Fatalf("Keys() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys() = %v, want %v", got, want)
		}
	}
}

func TestSetCapacityOne(t *testing.T) {
	s := NewSet(1)
	s.Touch(1)
	hit, ev, did := s.Touch(2)
	if hit || !did || ev != 1 {
		t.Errorf("capacity-1 set: hit=%v ev=%d did=%v", hit, ev, did)
	}
	if !s.Contains(2) || s.Contains(1) {
		t.Error("capacity-1 set retained wrong key")
	}
}

func TestSetRemove(t *testing.T) {
	s := NewSet(3)
	s.Touch(1)
	s.Touch(2)
	if !s.Remove(1) {
		t.Fatal("Remove(1) = false")
	}
	if s.Remove(1) {
		t.Fatal("second Remove(1) = true")
	}
	if s.Len() != 1 || s.Contains(1) {
		t.Fatal("Remove did not delete")
	}
	// Freed slot is reusable without eviction.
	s.Touch(3)
	s.Touch(4)
	if s.Len() != 3 {
		t.Fatalf("Len = %d after refill, want 3", s.Len())
	}
}

func TestSetReset(t *testing.T) {
	s := NewSet(4)
	for k := uint64(0); k < 4; k++ {
		s.Touch(k)
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatal("Reset did not empty")
	}
	for k := uint64(0); k < 4; k++ {
		if s.Contains(k) {
			t.Fatal("Reset left keys behind")
		}
	}
	// Full capacity available again.
	for k := uint64(10); k < 14; k++ {
		if _, _, did := s.Touch(k); did {
			t.Fatal("eviction during refill after Reset")
		}
	}
}

func TestSetPanicsOnBadCapacity(t *testing.T) {
	for _, c := range []int{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSet(%d) did not panic", c)
				}
			}()
			NewSet(c)
		}()
	}
}

// refLRU is a deliberately simple slice-based model used as an oracle.
type refLRU struct {
	keys []uint64
	cap  int
}

func (r *refLRU) touch(k uint64) (hit bool, evicted uint64, did bool) {
	for i, v := range r.keys {
		if v == k {
			r.keys = append(r.keys[:i], r.keys[i+1:]...)
			r.keys = append([]uint64{k}, r.keys...)
			return true, 0, false
		}
	}
	r.keys = append([]uint64{k}, r.keys...)
	if len(r.keys) > r.cap {
		evicted = r.keys[len(r.keys)-1]
		r.keys = r.keys[:len(r.keys)-1]
		return false, evicted, true
	}
	return false, 0, false
}

func TestSetMatchesReferenceModel(t *testing.T) {
	// Property: the intrusive implementation agrees with a naive model
	// on hit/miss, evictions and full recency order for random streams.
	f := func(seed uint64, capRaw uint8, n uint16) bool {
		capacity := int(capRaw%32) + 1
		s := NewSet(capacity)
		ref := &refLRU{cap: capacity}
		r := rng.NewXoshiro256(seed)
		steps := int(n%2048) + 1
		for i := 0; i < steps; i++ {
			k := r.Uint64n(uint64(capacity * 3)) // force plenty of evictions
			h1, e1, d1 := s.Touch(k)
			h2, e2, d2 := ref.touch(k)
			if h1 != h2 || d1 != d2 || (d1 && e1 != e2) {
				return false
			}
		}
		got := s.Keys()
		if len(got) != len(ref.keys) {
			return false
		}
		for i := range got {
			if got[i] != ref.keys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// The TestCache tests check IDSet, which replaced the vector-keyed
// Cache as the substrate of the fully-associative LRU predictor: the
// predictor keeps its counters in per-ID slots and asks IDSet only for
// residency (Contains, the old Peek) and recency (Touch, the old
// Get/Put/Fetch).

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
	// Property: IDSet agrees with the naive model (and so with Set) on
	// hit/miss and full recency order for random streams.
	f := func(seed uint64, capRaw uint8, n uint16) bool {
		capacity := int(capRaw%32) + 1
		s := NewIDSet(capacity)
		ref := &refLRU{cap: capacity}
		r := rng.NewXoshiro256(seed)
		steps := int(n%2048) + 1
		for i := 0; i < steps; i++ {
			id := int32(r.Uint64n(uint64(capacity * 3)))
			h, _, _ := ref.touch(uint64(id))
			if s.Touch(id) != h {
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

func BenchmarkSetTouch(b *testing.B) {
	s := NewSet(1 << 12)
	r := rng.NewXoshiro256(1)
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = r.Uint64n(1 << 13)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Touch(keys[i&(1<<16-1)])
	}
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
