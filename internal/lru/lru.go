// Package lru implements fixed-capacity least-recently-used
// containers: Cache, a keyed map for the bounded maps of the service
// (the memory tier of the result store and trace pool, live predict
// sessions, materialised benchmark traces), and IDSet over the dense
// IDs of an indexfn.Interner (the substrate of the paper's
// fully-associative tagged tables and of the fully-associative LRU
// predictor of Figure 8).
//
// Cache runs once per request, so it is a container/list under a map.
// IDSet runs once per simulated branch, so it threads an intrusive
// recency list through per-ID slots and needs no map at all.
package lru

import (
	"container/list"
	"fmt"

	"gskew/internal/indexfn"
)

const nilIdx = -1

// Cache is a fixed-capacity LRU map. It is not safe for concurrent
// use; callers hold their own lock.
type Cache[K comparable, V any] struct {
	capacity int
	ll       *list.List // of *entry[K, V]; front = most recently used
	index    map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// NewCache returns an empty cache holding at most capacity (> 0)
// entries.
func NewCache[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity <= 0 {
		panic(fmt.Sprintf("lru: capacity %d must be positive", capacity))
	}
	return &Cache[K, V]{capacity: capacity, ll: list.New(), index: make(map[K]*list.Element)}
}

// Len returns the current number of entries.
func (c *Cache[K, V]) Len() int { return c.ll.Len() }

// Get returns the value under key and makes it the most recently
// used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	e, ok := c.index[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(e)
	return e.Value.(*entry[K, V]).val, true
}

// Peek returns the value under key without refreshing its recency.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	e, ok := c.index[key]
	if !ok {
		var zero V
		return zero, false
	}
	return e.Value.(*entry[K, V]).val, true
}

// Put stores v under key as the most recently used entry, replacing
// any value already there. When the insert overflows the capacity, the
// least recently used entry is dropped and its key reported.
func (c *Cache[K, V]) Put(key K, v V) (evicted K, didEvict bool) {
	if e, ok := c.index[key]; ok {
		e.Value.(*entry[K, V]).val = v
		c.ll.MoveToFront(e)
		return evicted, false
	}
	c.index[key] = c.ll.PushFront(&entry[K, V]{key: key, val: v})
	if c.ll.Len() <= c.capacity {
		return evicted, false
	}
	evicted = c.ll.Remove(c.ll.Back()).(*entry[K, V]).key
	delete(c.index, evicted)
	return evicted, true
}

// Remove deletes key, reporting whether it was present.
func (c *Cache[K, V]) Remove(key K) bool {
	e, ok := c.index[key]
	if ok {
		c.ll.Remove(e)
		delete(c.index, key)
	}
	return ok
}

// IDSet is a fixed-capacity LRU set over dense IDs (see
// indexfn.Interner): a doubly-linked recency list whose links live in
// per-ID slots (-1 ends the list; notResident marks an ID outside the
// set). A touch is O(1) slice work and no hash probe.
type IDSet struct {
	prev, next []int32
	capacity   int
	size       int
	head, tail int32 // most and least recently used
	evictMRU   bool  // planted fault, see TamperEvictMRU
}

const notResident = -2

// NewIDSet returns an empty ID set with the given capacity (> 0).
func NewIDSet(capacity int) *IDSet {
	if capacity <= 0 {
		panic(fmt.Sprintf("lru: capacity %d must be positive", capacity))
	}
	return &IDSet{capacity: capacity, head: nilIdx, tail: nilIdx}
}

// Capacity returns the maximum number of IDs the set can hold.
func (l *IDSet) Capacity() int { return l.capacity }

// Len returns the current number of IDs.
func (l *IDSet) Len() int { return l.size }

// Contains reports whether id is resident without refreshing it.
func (l *IDSet) Contains(id int32) bool {
	return int(id) < len(l.prev) && l.prev[id] != notResident
}

// Touch inserts id as most recently used, evicting the least recently
// used ID when full, or refreshes it; it reports whether id was
// resident.
func (l *IDSet) Touch(id int32) bool {
	if int(id) >= len(l.prev) {
		l.prev = indexfn.GrowIDs(l.prev, id, notResident)
		l.next = indexfn.GrowIDs(l.next, id, notResident)
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
		if l.evictMRU {
			victim = l.head
		}
		l.unlink(victim)
		l.prev[victim], l.next[victim] = notResident, notResident
	} else {
		l.size++
	}
	l.pushFront(id)
	return false
}

// Reset empties the set, keeping its per-ID slots.
func (l *IDSet) Reset() {
	for i := range l.prev {
		l.prev[i], l.next[i] = notResident, notResident
	}
	l.size = 0
	l.head, l.tail = nilIdx, nilIdx
}

// IDs returns the resident IDs from most to least recently used.
// Intended for tests and diagnostics; it allocates.
func (l *IDSet) IDs() []int32 {
	out := make([]int32, 0, l.size)
	for i := l.head; i != nilIdx; i = l.next[i] {
		out = append(out, i)
	}
	return out
}

func (l *IDSet) unlink(id int32) {
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

func (l *IDSet) pushFront(id int32) {
	l.prev[id] = nilIdx
	l.next[id] = l.head
	if l.head >= 0 {
		l.prev[l.head] = id
	} else {
		l.tail = id
	}
	l.head = id
}

// TamperEvictMRU plants a replacement fault into l: a full set evicts
// its most recently used ID instead of the least. It exists for the
// differential harness's fault-injection selftest.
func TamperEvictMRU(l *IDSet) { l.evictMRU = true }
