package alias

import (
	"fmt"
	"math"

	"gskew/internal/indexfn"
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
// Only the order of the marks matters, so when the timestamps run out
// of tree the profiler renumbers the live marks 1..U in order (U
// distinct vectors so far) and rebuilds the tree, doubling it only
// when the marks fill more than half of it. The tree therefore holds
// between two and four slots per distinct vector, not one per
// reference: it stays cache-sized on streams of millions of references
// over tens of thousands of vectors.
//
// Per-vector state lives in slices indexed by dense IDs (see
// indexfn.Interner): Observe interns through the profiler's own
// interner, ObserveID takes IDs a caller has already interned and
// shares with other structures.
type StackDist struct {
	in       *indexfn.Interner // owned interner behind Observe (nil until used)
	bit      []int32           // Fenwick tree over timestamps, 1-based
	idAt     []int32           // timestamp -> ID referenced then
	lastPos  []int32           // ID -> timestamp of latest reference (0 = never)
	now      int32             // latest timestamp assigned
	distinct int               // distinct IDs seen (= marks in the tree)
	histo    []int             // histo[d+1] = references at distance d (Cold at 0)
	accesses int
	hint     int // expected references, sizes in
}

// Cold is the distance reported for first-time references.
const Cold = -1

// minStackSlots is the initial tree size.
const minStackSlots = 1 << 10

// NewStackDist returns an empty profiler. The tree is sized by the
// distinct vectors it meets, so hint, the expected reference count,
// only sizes the interner behind Observe.
func NewStackDist(hint int) *StackDist {
	return &StackDist{
		bit:   make([]int32, minStackSlots),
		idAt:  make([]int32, minStackSlots),
		histo: make([]int, 1, 64),
		hint:  hint,
	}
}

// renumber moves the live marks to timestamps 1..distinct, keeping
// their order, and rebuilds the tree, doubled when the marks fill more
// than half of it.
func (s *StackDist) renumber() {
	size := len(s.bit)
	if 2*s.distinct > size-1 {
		size *= 2
	}
	if size > math.MaxInt32 {
		panic(fmt.Sprintf("alias: stack-distance profiler is limited to %d distinct vectors", math.MaxInt32/4))
	}
	idAt := s.idAt
	if size != len(idAt) {
		idAt = make([]int32, size)
	}
	// In place is safe: the k-th live mark moves to k <= its old t.
	k := int32(0)
	for t := int32(1); t <= s.now; t++ {
		id := s.idAt[t]
		if s.lastPos[id] == t {
			k++
			idAt[k] = id
			s.lastPos[id] = k
		}
	}
	s.idAt, s.now = idAt, k
	// Linear-time Fenwick construction over marks at 1..k.
	if size != len(s.bit) {
		s.bit = make([]int32, size)
	} else {
		clear(s.bit)
	}
	for i := 1; i <= int(k); i++ {
		s.bit[i] = 1
	}
	for i := 1; i < size; i++ {
		if j := i + i&-i; j < size {
			s.bit[j] += s.bit[i]
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
		s.in = indexfn.NewInterner(s.hint / 8)
	}
	id, _ := s.in.ID(v)
	return s.ObserveID(id)
}

// ObserveID records a reference to the vector with dense ID id and
// returns its last-use distance, or Cold for a first reference.
func (s *StackDist) ObserveID(id int32) int {
	if int(s.now) == len(s.bit)-1 {
		s.renumber()
	}
	s.now++
	t := s.now
	s.accesses++
	s.lastPos = indexfn.GrowIDs(s.lastPos, id, 0)

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
	s.idAt[t] = id
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
