package alias

import (
	"fmt"
	"math"

	"gskew/internal/indexfn"
)

// This file implements Belady's OPT (furthest-next-use) replacement
// for tagged tables. The paper notes (after Sugumar and Abraham) that
// LRU is not an optimal replacement policy, so the capacity-aliasing
// estimate obtained from an LRU table is an upper bound; OPT gives the
// true minimum achievable by any replacement policy, and the gap
// between the direct-mapped table and OPT bounds the conflict
// component from above. OPT needs future knowledge, so it runs offline
// over a recorded reference stream.

// OptMissRatio simulates an n-entry fully-associative table with OPT
// replacement over refs and returns its miss ratio. It runs in
// O(len(refs) log n) time.
func OptMissRatio(refs []uint64, n int) float64 {
	if n <= 0 {
		panic(fmt.Sprintf("alias: capacity %d must be positive", n))
	}
	if len(refs) == 0 {
		return 0
	}
	misses := OptMisses(refs, n)
	return float64(misses) / float64(len(refs))
}

// OptMisses returns the miss count of an n-entry OPT table over refs.
func OptMisses(refs []uint64, n int) int {
	ids, u := indexfn.Intern(refs)
	return NewOptStream(ids, u).Misses(n)
}

// OptStream is a dense-ID reference stream prepared for OPT: the
// next-use array is computed once and serves every capacity.
type OptStream struct {
	ids  []int32
	next []int32 // next[i]: position of the next reference to ids[i], or never
	u    int
}

// never is the next use of a reference that is not referenced again.
const never = math.MaxInt32

// NewOptStream prepares the stream ids (dense IDs in [0, u)) for OPT
// simulation. The stream is shared, not copied.
func NewOptStream(ids []int32, u int) *OptStream {
	if len(ids) >= never {
		panic(fmt.Sprintf("alias: OPT stream is limited to %d references", never-1))
	}
	next := make([]int32, len(ids))
	last := make([]int32, u)
	for i := range last {
		last[i] = never
	}
	for i := len(ids) - 1; i >= 0; i-- {
		id := ids[i]
		next[i] = last[id]
		last[id] = int32(i)
	}
	return &OptStream{ids: ids, next: next, u: u}
}

// Misses returns the miss count of an n-entry OPT table over the
// stream.
//
// The resident set is an indexed max-heap on next use, bounded by n. A
// hit raises its entry's key from the current position to the
// reference's next use (a sift-up); a miss on a full table replaces
// the root — the resident vector used furthest in the future — with
// the new vector (a sift-down). Victims tied at "never" are all dead,
// so the tie order does not change the miss count.
func (o *OptStream) Misses(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("alias: capacity %d must be positive", n))
	}
	h := optHeap{
		at:   make([]int32, o.u),
		keys: make([]int32, 0, min(n, o.u)),
		ids:  make([]int32, 0, min(n, o.u)),
	}
	for i := range h.at {
		h.at[i] = -1
	}
	misses := 0
	for i, id := range o.ids {
		nu := o.next[i]
		if j := h.at[id]; j >= 0 {
			h.keys[j] = nu
			h.up(int(j))
			continue
		}
		misses++
		if len(h.keys) < n {
			h.push(nu, id)
		} else {
			h.replaceTop(nu, id)
		}
	}
	return misses
}

// optHeap is a max-heap of (next use, ID) pairs with each resident
// ID's heap position in at (-1 when not resident).
type optHeap struct {
	at   []int32
	keys []int32
	ids  []int32
}

func (h *optHeap) swap(i, j int) {
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.at[h.ids[i]] = int32(i)
	h.at[h.ids[j]] = int32(j)
}

func (h *optHeap) up(j int) {
	for j > 0 {
		p := (j - 1) / 2
		if h.keys[p] >= h.keys[j] {
			return
		}
		h.swap(p, j)
		j = p
	}
}

func (h *optHeap) down(j int) {
	n := len(h.keys)
	for {
		c := 2*j + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h.keys[r] > h.keys[c] {
			c = r
		}
		if h.keys[j] >= h.keys[c] {
			return
		}
		h.swap(j, c)
		j = c
	}
}

func (h *optHeap) push(key, id int32) {
	h.keys = append(h.keys, key)
	h.ids = append(h.ids, id)
	h.at[id] = int32(len(h.keys) - 1)
	h.up(len(h.keys) - 1)
}

// replaceTop evicts the root and inserts (key, id) in its place.
func (h *optHeap) replaceTop(key, id int32) {
	h.at[h.ids[0]] = -1
	h.keys[0], h.ids[0] = key, id
	h.at[id] = 0
	h.down(0)
}
