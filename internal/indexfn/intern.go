package indexfn

// Interner maps information vectors to dense IDs in [0, U), in
// first-use order, where U is the number of distinct vectors seen so
// far. The aliasing tables of internal/alias and the reference
// predictors of internal/predictor keep their per-vector state in
// slices indexed by these IDs, so the interner's table is the only hash
// probe a reference pays, and first use falls out of it: a vector's
// first reference is the one that allocates its ID.
//
// Several structures fed the same reference stream can share one
// interner (or one interned ID stream) and so pay that probe once.
//
// The table is open-addressed with linear probing under a
// multiplicative (Fibonacci) hash, kept at most half full: a probe is
// one multiply and, almost always, one cache line.
type Interner struct {
	slots []internSlot
	shift uint // 64 - log2(len(slots))
	n     int
}

// internSlot holds a vector and its ID plus one (zero marks a free
// slot).
type internSlot struct {
	key uint64
	id1 int32
}

// NewInterner returns an empty interner sized for about hint distinct
// vectors.
func NewInterner(hint int) *Interner {
	in := &Interner{}
	in.alloc(max(hint, 8))
	return in
}

// alloc sizes the table for at least n entries at half load.
func (in *Interner) alloc(n int) {
	size, bits := 16, uint(4)
	for size < 2*n {
		size *= 2
		bits++
	}
	in.slots = make([]internSlot, size)
	in.shift = 64 - bits
}

const fibHash = 0x9E3779B97F4A7C15

// ID returns v's dense ID and whether this reference is v's first use
// (the one that allocated the ID).
func (in *Interner) ID(v uint64) (id int32, first bool) {
	mask := uint64(len(in.slots) - 1)
	i := (v * fibHash) >> in.shift
	for {
		s := &in.slots[i]
		if s.id1 == 0 {
			break
		}
		if s.key == v {
			return s.id1 - 1, false
		}
		i = (i + 1) & mask
	}
	id = int32(in.n)
	in.slots[i] = internSlot{key: v, id1: id + 1}
	in.n++
	if 2*in.n > len(in.slots) {
		in.rehash()
	}
	return id, true
}

// rehash doubles the table (alloc sizes it for the current entries at
// half load), re-inserting every entry.
func (in *Interner) rehash() {
	old := in.slots
	in.alloc(in.n)
	mask := uint64(len(in.slots) - 1)
	for _, s := range old {
		if s.id1 == 0 {
			continue
		}
		i := (s.key * fibHash) >> in.shift
		for in.slots[i].id1 != 0 {
			i = (i + 1) & mask
		}
		in.slots[i] = s
	}
}

// Lookup returns v's dense ID, or -1 when v has not been interned.
func (in *Interner) Lookup(v uint64) int32 {
	mask := uint64(len(in.slots) - 1)
	for i := (v * fibHash) >> in.shift; ; i = (i + 1) & mask {
		s := &in.slots[i]
		if s.id1 == 0 {
			return -1
		}
		if s.key == v {
			return s.id1 - 1
		}
	}
}

// Len returns U, the number of distinct vectors interned.
func (in *Interner) Len() int { return in.n }

// Reset forgets every vector, keeping the table's capacity: the next
// vector interned gets ID 0 again.
func (in *Interner) Reset() {
	clear(in.slots)
	in.n = 0
}

// Intern maps a recorded reference stream to its dense-ID form and
// returns the IDs with U, the number of distinct vectors.
func Intern(refs []uint64) (ids []int32, u int) {
	in := NewInterner(len(refs) / 8)
	ids = make([]int32, len(refs))
	for i, v := range refs {
		ids[i], _ = in.ID(v)
	}
	return ids, in.Len()
}

// GrowIDs extends a per-ID slice so that index id is valid, filling new
// slots with fill and growing geometrically (IDs arrive in first-use
// order, so growth is append-like).
func GrowIDs(s []int32, id int32, fill int32) []int32 {
	if int(id) < len(s) {
		return s
	}
	n := max(2*len(s), int(id)+1, 64)
	out := make([]int32, n)
	copy(out, s)
	for i := len(s); i < n; i++ {
		out[i] = fill
	}
	return out
}
