package alias

import (
	"fmt"
	"math"
)

// StackDist computes exact LRU stack distances ("last-use distances"
// in the paper's terminology): for each reference to a vector V, the
// number of DISTINCT other vectors referenced since the previous
// reference to V. First-time references report Cold (-1).
//
// This is the quantity D in the paper's aliasing-probability formula
// p = 1 - (1 - 1/N)^D (section 5.2), and also yields FA-LRU miss
// ratios for any capacity in one pass: a reference misses an N-entry
// LRU table iff D >= N.
//
// The implementation is the classical O(log n)-per-reference
// algorithm: a Fenwick (binary indexed) tree over reference timestamps
// marks, for every distinct vector, the position of its most recent
// reference. The stack distance of a reference at time t to a vector
// last seen at time p is the number of marks in (p, t). Every distinct
// vector holds exactly one mark, so the marks in [1, t) number the
// distinct vectors seen so far, and only the prefix sum up to p needs
// a tree walk.
//
// Per-vector state lives in slices indexed by dense IDs (see Interner):
// Observe interns through the profiler's own interner, ObserveID takes
// IDs a caller has already interned and shares with other structures.
// Timestamps are 32-bit, so one profiler takes at most 2^31-1
// references.
type StackDist struct {
	in       *Interner // owned interner behind Observe (nil until used)
	bit      []int32   // Fenwick tree over timestamps, 1-based
	lastPos  []int32   // ID -> timestamp of latest reference (0 = never)
	now      int32     // current timestamp (1-based, next to assign)
	distinct int       // distinct IDs seen (= marks in the tree)
	histo    []int     // histo[d+1] = references at distance d (Cold at 0)
	accesses int
}

// Cold is the distance reported for first-time references.
const Cold = -1

// NewStackDist returns a profiler with capacity hint n references
// (it grows as needed).
func NewStackDist(hint int) *StackDist {
	if hint < 16 {
		hint = 16
	}
	return &StackDist{
		bit:   make([]int32, hint+1),
		histo: make([]int, 1, 64),
	}
}

func (s *StackDist) grow(n int32) {
	if int(n) < len(s.bit) {
		return
	}
	size := len(s.bit)
	for size <= int(n) {
		size *= 2
	}
	// Rebuild the tree with the larger size: Fenwick trees cannot be
	// resized in place, but the marked set is exactly the nonzero
	// values in lastPos, so reconstruct from it.
	s.bit = make([]int32, size)
	for _, p := range s.lastPos {
		if p != 0 {
			s.add(p, 1)
		}
	}
}

func (s *StackDist) add(i int32, delta int32) {
	for ; int(i) < len(s.bit); i += i & (-i) {
		s.bit[i] += delta
	}
}

// sum returns the number of marks in [1, i].
func (s *StackDist) sum(i int32) int {
	t := int32(0)
	for ; i > 0; i -= i & (-i) {
		t += s.bit[i]
	}
	return int(t)
}

// Observe records a reference to vector v and returns its last-use
// distance, or Cold for a first reference. A profiler is fed either
// through Observe or through ObserveID, never both.
func (s *StackDist) Observe(v uint64) int {
	if s.in == nil {
		s.in = NewInterner(len(s.bit) / 8)
	}
	id, _ := s.in.ID(v)
	return s.ObserveID(id)
}

// ObserveID records a reference to the vector with dense ID id and
// returns its last-use distance, or Cold for a first reference.
func (s *StackDist) ObserveID(id int32) int {
	if s.now == math.MaxInt32 {
		panic(fmt.Sprintf("alias: stack-distance profiler is limited to %d references", math.MaxInt32))
	}
	s.now++
	t := s.now
	s.grow(t)
	s.accesses++
	s.lastPos = growIDs(s.lastPos, id, 0)

	d := Cold
	if p := s.lastPos[id]; p != 0 {
		// Marks strictly after p and before t are exactly the distinct
		// vectors touched since the previous reference to id.
		d = s.distinct - s.sum(p)
		s.add(p, -1)
	} else {
		s.distinct++
	}
	s.lastPos[id] = t
	s.add(t, 1)
	for len(s.histo) <= d+1 {
		s.histo = append(s.histo, 0)
	}
	s.histo[d+1]++
	return d
}

// Accesses returns the number of references observed.
func (s *StackDist) Accesses() int { return s.accesses }

// Distinct returns the number of distinct vectors observed.
func (s *StackDist) Distinct() int { return s.distinct }

// Histogram returns the distance histogram (Cold under key -1) as a
// fresh map.
func (s *StackDist) Histogram() map[int]int {
	h := make(map[int]int)
	for i, count := range s.histo {
		if count != 0 {
			h[i-1] = count
		}
	}
	return h
}

// MissesAt returns the miss count an N-entry fully-associative LRU
// table would see on the observed stream: references with D >= N or
// D == Cold miss.
func (s *StackDist) MissesAt(n int) int {
	misses := s.histo[0]
	for i := max(n, 0) + 1; i < len(s.histo); i++ {
		misses += s.histo[i]
	}
	return misses
}

// MissRatioAt returns MissesAt(n) per reference.
func (s *StackDist) MissRatioAt(n int) float64 {
	if s.accesses == 0 {
		return 0
	}
	return float64(s.MissesAt(n)) / float64(s.accesses)
}

// ColdRatio returns the fraction of references that were first uses —
// the compulsory aliasing ratio.
func (s *StackDist) ColdRatio() float64 {
	if s.accesses == 0 {
		return 0
	}
	return float64(s.histo[0]) / float64(s.accesses)
}
