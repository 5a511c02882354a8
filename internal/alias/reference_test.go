package alias

import (
	"container/heap"

	"gskew/internal/counter"
	"gskew/internal/indexfn"
	"gskew/internal/lru"
	"gskew/internal/predictor"
)

// This file keeps the map- and vector-keyed implementations the
// dense-ID structures replaced. They share no per-vector state layout
// with the package code — every table is keyed by the raw vector, in a
// Go map, the lru package's Set or a vector-tagged array — so they
// serve as the independent reference the dense versions are diffed
// against (FuzzAliasDense).

// vecTaggedDM is the direct-mapped tagged table that stores each
// entry's last information vector and recomputes the index function at
// every reference.
type vecTaggedDM struct {
	fn       indexfn.Func
	tags     []uint64
	valid    []bool
	accesses int
	misses   int
}

func newVecTaggedDM(fn indexfn.Func) *vecTaggedDM {
	n := 1 << fn.Bits()
	return &vecTaggedDM{fn: fn, tags: make([]uint64, n), valid: make([]bool, n)}
}

// Observe records a reference and reports whether it aliased (the
// entry held a different vector, or was empty — i.e. a "miss").
func (t *vecTaggedDM) Observe(addr, hist uint64) bool {
	v := indexfn.Vector(addr, hist, t.fn.HistoryBits())
	i := t.fn.Index(addr, hist)
	t.accesses++
	if t.valid[i] && t.tags[i] == v {
		return false
	}
	t.valid[i] = true
	t.tags[i] = v
	t.misses++
	return true
}

// vecTaggedSA is the set-associative tagged table that stores each
// way's last information vector and recomputes the index function at
// every reference.
type vecTaggedSA struct {
	fn       indexfn.Func
	ways     int
	tags     []uint64 // sets x ways
	valid    []bool
	age      []uint32 // per-entry LRU clock value
	clock    uint32
	accesses int
	misses   int
}

func newVecTaggedSA(fn indexfn.Func, ways int) *vecTaggedSA {
	n := (1 << fn.Bits()) * ways
	return &vecTaggedSA{
		fn:    fn,
		ways:  ways,
		tags:  make([]uint64, n),
		valid: make([]bool, n),
		age:   make([]uint32, n),
	}
}

// Observe records a reference and reports whether it missed (the set
// did not hold the reference's vector).
func (t *vecTaggedSA) Observe(addr, hist uint64) bool {
	v := indexfn.Vector(addr, hist, t.fn.HistoryBits())
	set := int(t.fn.Index(addr, hist)) * t.ways
	t.accesses++
	t.clock++

	// Hit?
	for w := 0; w < t.ways; w++ {
		i := set + w
		if t.valid[i] && t.tags[i] == v {
			t.age[i] = t.clock
			return false
		}
	}
	// Miss: fill an invalid way or evict the LRU way.
	t.misses++
	victim := set
	for w := 0; w < t.ways; w++ {
		i := set + w
		if !t.valid[i] {
			victim = i
			break
		}
		if t.age[i] < t.age[victim] {
			victim = i
		}
	}
	t.valid[victim] = true
	t.tags[victim] = v
	t.age[victim] = t.clock
	return true
}

// mapStackDist is the map-keyed Fenwick stack-distance profiler.
type mapStackDist struct {
	bit     []int
	lastPos map[uint64]int
	now     int
	histo   map[int]int
	refs    int
}

func newMapStackDist() *mapStackDist {
	return &mapStackDist{bit: make([]int, 17), lastPos: map[uint64]int{}, histo: map[int]int{}}
}

func (s *mapStackDist) add(i, delta int) {
	for ; i < len(s.bit); i += i & (-i) {
		s.bit[i] += delta
	}
}

func (s *mapStackDist) sum(i int) int {
	t := 0
	for ; i > 0; i -= i & (-i) {
		t += s.bit[i]
	}
	return t
}

func (s *mapStackDist) observe(v uint64) int {
	s.now++
	t := s.now
	if t >= len(s.bit) {
		s.bit = make([]int, 2*len(s.bit))
		for _, p := range s.lastPos {
			s.add(p, 1)
		}
	}
	s.refs++
	d := Cold
	if p, seen := s.lastPos[v]; seen {
		d = s.sum(t-1) - s.sum(p)
		s.add(p, -1)
	}
	s.lastPos[v] = t
	s.add(t, 1)
	s.histo[d]++
	return d
}

// missesAt counts references with D == Cold or D >= n.
func (s *mapStackDist) missesAt(n int) int {
	misses := 0
	for d, count := range s.histo {
		if d == Cold || d >= n {
			misses += count
		}
	}
	return misses
}

// mapOptMisses is Belady's OPT over a map-keyed resident set and a
// lazy container/heap max-heap.
func mapOptMisses(refs []uint64, n int) int {
	const inf = int(^uint(0) >> 1)
	nextUse := make([]int, len(refs))
	last := make(map[uint64]int)
	for i := len(refs) - 1; i >= 0; i-- {
		if j, ok := last[refs[i]]; ok {
			nextUse[i] = j
		} else {
			nextUse[i] = inf
		}
		last[refs[i]] = i
	}
	resident := make(map[uint64]int, n)
	h := &mapOptHeap{}
	misses := 0
	for i, v := range refs {
		if _, ok := resident[v]; !ok {
			misses++
			if len(resident) >= n {
				for {
					top := heap.Pop(h).(mapOptEntry)
					if cur, ok := resident[top.vec]; ok && cur == top.next {
						delete(resident, top.vec)
						break
					}
				}
			}
		}
		resident[v] = nextUse[i]
		heap.Push(h, mapOptEntry{next: nextUse[i], vec: v})
	}
	return misses
}

type mapOptEntry struct {
	next int
	vec  uint64
}

type mapOptHeap []mapOptEntry

func (h mapOptHeap) Len() int           { return len(h) }
func (h mapOptHeap) Less(i, j int) bool { return h[i].next > h[j].next }
func (h mapOptHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *mapOptHeap) Push(x any)        { *h = append(*h, x.(mapOptEntry)) }
func (h *mapOptHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// mapTaggedFA is the fully-associative LRU table over lru.Set.
type mapTaggedFA struct {
	set      *lru.Set
	histBits uint
	misses   int
}

func newMapTaggedFA(entries int, histBits uint) *mapTaggedFA {
	return &mapTaggedFA{set: lru.NewSet(entries), histBits: histBits}
}

func (t *mapTaggedFA) observe(addr, hist uint64) bool {
	hit, _, _ := t.set.Touch(indexfn.Vector(addr, hist, t.histBits))
	if !hit {
		t.misses++
	}
	return !hit
}

// mapClassifier is the three-Cs classifier with a map first-use set.
type mapClassifier struct {
	dm   *vecTaggedDM
	fa   *mapTaggedFA
	seen map[uint64]struct{}
	cold int
	refs int
}

func newMapClassifier(fn indexfn.Func) *mapClassifier {
	return &mapClassifier{
		dm:   newVecTaggedDM(fn),
		fa:   newMapTaggedFA(1<<fn.Bits(), fn.HistoryBits()),
		seen: map[uint64]struct{}{},
	}
}

func (c *mapClassifier) observe(addr, hist uint64) RefClass {
	c.refs++
	v := indexfn.Vector(addr, hist, c.dm.fn.HistoryBits())
	dmMiss := c.dm.Observe(addr, hist)
	faMiss := c.fa.observe(addr, hist)
	_, everSeen := c.seen[v]
	if !everSeen {
		c.seen[v] = struct{}{}
		c.cold++
	}
	switch {
	case !everSeen:
		return Compulsory
	case faMiss:
		return Capacity
	case dmMiss:
		return Conflict
	default:
		return NoAlias
	}
}

func (c *mapClassifier) stats() ThreeC {
	return ThreeC{
		Accesses:   c.refs,
		Compulsory: c.cold,
		Capacity:   c.fa.misses - c.cold,
		Conflict:   c.dm.misses - c.fa.misses,
	}
}

// mapUnaliased is the infinite predictor table with its counters held
// by value in a vector-keyed map.
type mapUnaliased struct {
	counters map[uint64]counter.Counter
	histBits uint
	ctrBits  uint
}

func newMapUnaliased(k, ctrBits uint) *mapUnaliased {
	return &mapUnaliased{counters: map[uint64]counter.Counter{}, histBits: k, ctrBits: ctrBits}
}

func (u *mapUnaliased) seen(addr, hist uint64) bool {
	_, ok := u.counters[indexfn.Vector(addr, hist, u.histBits)]
	return ok
}

// step predicts (taken for an unseen substream) and trains.
func (u *mapUnaliased) step(addr, hist uint64, taken bool) bool {
	v := indexfn.Vector(addr, hist, u.histBits)
	c, ok := u.counters[v]
	pred := true
	if ok {
		pred = c.Predict()
	} else if taken {
		c = counter.WeaklyTaken(u.ctrBits)
	} else {
		c = counter.WeaklyNotTaken(u.ctrBits)
	}
	u.counters[v] = c.Update(taken)
	return pred
}

// mapInterference is the interference classifier over the vector-tagged
// table and the map-keyed unaliased oracle, each predicting before any
// structure trains.
type mapInterference struct {
	finite *predictor.Single
	tags   *vecTaggedDM
	oracle *mapUnaliased
}

func newMapInterference(fn indexfn.Func, counterBits uint) *mapInterference {
	return &mapInterference{
		finite: predictor.NewSingle(fn, counterBits),
		tags:   newVecTaggedDM(fn),
		oracle: newMapUnaliased(fn.HistoryBits(), counterBits),
	}
}

func (n *mapInterference) observe(addr, hist uint64, taken bool) InterferenceKind {
	finitePred := n.finite.Predict(addr, hist)
	oracleSeen := n.oracle.seen(addr, hist)
	aliased := n.tags.Observe(addr, hist)
	n.finite.Update(addr, hist, taken)
	oraclePred := n.oracle.step(addr, hist, taken)
	switch {
	case !oracleSeen:
		return ColdOracle
	case !aliased:
		return Unaliased
	case finitePred == oraclePred:
		return Harmless
	case oraclePred == taken:
		return Destructive
	default:
		return Constructive
	}
}
