// Package lru implements fixed-capacity least-recently-used sets: Set
// over arbitrary uint64 keys (the recency of the result store and the
// trace pool), and IDSet over the dense IDs of an indexfn.Interner (the
// substrate of the paper's fully-associative tagged tables and of the
// fully-associative LRU predictor of Figure 8).
//
// Set is an intrusive doubly-linked list over a slice of pre-allocated
// nodes plus a map for lookup, so steady-state operation performs no
// allocation. IDSet threads the same list through per-ID slots instead,
// so it needs no map at all.
package lru

import (
	"fmt"

	"gskew/internal/indexfn"
)

const nilIdx = -1

type node struct {
	key        uint64
	prev, next int32
}

// Set is a fixed-capacity LRU set of uint64 keys. Touch inserts or
// refreshes a key, evicting the least-recently-used key when full.
type Set struct {
	nodes      []node
	index      map[uint64]int32
	head, tail int32 // head = most recent, tail = least recent
	free       int32 // head of free list (chained via next)
	size       int
}

// NewSet returns an LRU set with the given capacity (> 0).
func NewSet(capacity int) *Set {
	if capacity <= 0 {
		panic(fmt.Sprintf("lru: capacity %d must be positive", capacity))
	}
	s := &Set{
		nodes: make([]node, capacity),
		index: make(map[uint64]int32, capacity),
		head:  nilIdx,
		tail:  nilIdx,
	}
	// Chain the free list.
	for i := range s.nodes {
		s.nodes[i].next = int32(i + 1)
	}
	s.nodes[capacity-1].next = nilIdx
	s.free = 0
	return s
}

// Capacity returns the maximum number of keys the set can hold.
func (s *Set) Capacity() int { return len(s.nodes) }

// Len returns the current number of keys.
func (s *Set) Len() int { return s.size }

// Contains reports whether key is present without refreshing it.
func (s *Set) Contains(key uint64) bool {
	_, ok := s.index[key]
	return ok
}

// Touch inserts key (as most recently used) or refreshes it if present.
// It reports whether the key was already present (hit), and the evicted
// key, if insertion displaced one.
func (s *Set) Touch(key uint64) (hit bool, evicted uint64, didEvict bool) {
	if i, ok := s.index[key]; ok {
		s.moveToFront(i)
		return true, 0, false
	}
	var i int32
	if s.free != nilIdx {
		i = s.free
		s.free = s.nodes[i].next
		s.size++
	} else {
		// Evict the tail.
		i = s.tail
		evicted = s.nodes[i].key
		didEvict = true
		delete(s.index, evicted)
		s.unlink(i)
	}
	s.nodes[i].key = key
	s.index[key] = i
	s.pushFront(i)
	return false, evicted, didEvict
}

// Remove deletes key from the set, reporting whether it was present.
func (s *Set) Remove(key uint64) bool {
	i, ok := s.index[key]
	if !ok {
		return false
	}
	delete(s.index, key)
	s.unlink(i)
	s.nodes[i].next = s.free
	s.free = i
	s.size--
	return true
}

// Reset empties the set.
func (s *Set) Reset() {
	clear(s.index)
	for i := range s.nodes {
		s.nodes[i].next = int32(i + 1)
	}
	s.nodes[len(s.nodes)-1].next = nilIdx
	s.free = 0
	s.head, s.tail = nilIdx, nilIdx
	s.size = 0
}

// Keys returns the keys from most to least recently used. Intended for
// tests and diagnostics; it allocates.
func (s *Set) Keys() []uint64 {
	out := make([]uint64, 0, s.size)
	for i := s.head; i != nilIdx; i = s.nodes[i].next {
		out = append(out, s.nodes[i].key)
	}
	return out
}

func (s *Set) pushFront(i int32) {
	s.nodes[i].prev = nilIdx
	s.nodes[i].next = s.head
	if s.head != nilIdx {
		s.nodes[s.head].prev = i
	}
	s.head = i
	if s.tail == nilIdx {
		s.tail = i
	}
}

func (s *Set) unlink(i int32) {
	p, n := s.nodes[i].prev, s.nodes[i].next
	if p != nilIdx {
		s.nodes[p].next = n
	} else {
		s.head = n
	}
	if n != nilIdx {
		s.nodes[n].prev = p
	} else {
		s.tail = p
	}
}

func (s *Set) moveToFront(i int32) {
	if s.head == i {
		return
	}
	s.unlink(i)
	s.pushFront(i)
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
