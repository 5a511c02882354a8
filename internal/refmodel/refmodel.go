// Package refmodel is an independent executable specification of the
// predictor structures studied by the paper, transcribed directly from
// the definitions in Michaud, Seznec and Uhlig (ISCA 1997):
//
//   - the n-bit up/down saturating counter automaton (section 2),
//   - the bimodal, gshare and gselect index functions (section 3,
//     including the footnote-1 high-order alignment of short
//     histories in gshare),
//   - the skewing bijection H, its inverse H^-1, and the inter-bank
//     dispersion family f0, f1, f2 (section 4.2),
//   - the skewed predictor and its enhanced variant, under both the
//     total and the partial update policy (sections 4.3-4.5 and 6),
//     with three or more banks and with private counters or the
//     distributed shared-hysteresis encoding (section 7).
//
// Everything here is written for obviousness, not speed: indices are
// computed bit by bit on []bool bit strings, predictor state lives in
// Go maps keyed by the index, and no code is shared with
// internal/predictor, internal/skewfn, internal/indexfn or
// internal/counter. The package exists to be the second, independent
// opinion that the differential runner (refmodel/diff, cmd/verify)
// checks the optimized implementation against, so any "optimisation"
// here would defeat its purpose. Keep it naive.
package refmodel

import "fmt"

// --- bit strings ---------------------------------------------------
//
// The paper writes an n-bit string as (y_n, y_{n-1}, ..., y_1) with
// y_1 the least significant bit. We represent it as a []bool b with
// b[i] = y_{i+1}, i.e. index 0 holds the LSB. Conversion to and from
// uint64 happens only at the package boundary.

// ToBits expands the low n bits of v into a bit string, LSB first.
func ToBits(v uint64, n uint) []bool {
	b := make([]bool, n)
	for i := uint(0); i < n; i++ {
		b[i] = v&1 == 1
		v >>= 1
	}
	return b
}

// FromBits packs a bit string (LSB first) back into a uint64.
func FromBits(b []bool) uint64 {
	var v uint64
	for i := len(b) - 1; i >= 0; i-- {
		v <<= 1
		if b[i] {
			v |= 1
		}
	}
	return v
}

// --- the counter automaton (section 2) -----------------------------

// SpecCounter is the n-bit saturating up/down counter automaton: a
// state in [0, 2^n-1] that increments on a taken outcome, decrements
// on a not-taken outcome, saturates at both ends, and predicts taken
// in the upper half of its state range. SpecCounter is a value type.
type SpecCounter struct {
	// State is the automaton state, in [0, Max].
	State int
	// Max is the saturation point, 2^bits - 1.
	Max int
}

// NewSpecCounter returns the automaton for the given width in its
// conventional initial state, weakly taken: the lowest state that
// still predicts taken.
func NewSpecCounter(bits uint) SpecCounter {
	if bits < 1 || bits > 8 {
		panic(fmt.Sprintf("refmodel: counter width %d out of range [1,8]", bits))
	}
	max := 1
	for i := uint(1); i < bits; i++ {
		max = max*2 + 1
	}
	c := SpecCounter{Max: max}
	c.State = c.threshold()
	return c
}

// threshold is the lowest state that predicts taken: the upper half
// of the range [0, Max] starts at (Max+1)/2.
func (c SpecCounter) threshold() int { return (c.Max + 1) / 2 }

// Predict reports the automaton's current direction.
func (c SpecCounter) Predict() bool { return c.State >= c.threshold() }

// Update returns the automaton state after observing an outcome.
func (c SpecCounter) Update(taken bool) SpecCounter {
	if taken {
		if c.State < c.Max {
			c.State++
		}
	} else {
		if c.State > 0 {
			c.State--
		}
	}
	return c
}

// InBounds reports whether the state is inside the legal range; every
// reachable state must satisfy it (the saturation-bounds property).
func (c SpecCounter) InBounds() bool { return c.State >= 0 && c.State <= c.Max }

// --- single-table index functions (section 3) ----------------------

// BimodalIndex is plain address truncation: the low n bits of the
// word-aligned branch address.
func BimodalIndex(addr uint64, n uint) uint64 {
	return FromBits(ToBits(addr, n))
}

// GShareIndex XORs k history bits into the n low address bits. Per
// footnote 1 (after McFarling), a history shorter than the index is
// aligned with the HIGH-order end of the index; a history longer than
// the index is folded down by XOR in n-bit groups so that every
// history bit still participates.
func GShareIndex(addr, hist uint64, n, k uint) uint64 {
	a := ToBits(addr, n)
	h := ToBits(hist, k)
	placed := make([]bool, n)
	if k <= n {
		// h_j lands at index bit (n-k)+j: high-order alignment.
		for j := uint(0); j < k; j++ {
			placed[(n-k)+j] = h[j]
		}
	} else {
		// Fold: global history bit j lands at index bit j mod n.
		for j := uint(0); j < k; j++ {
			if h[j] {
				placed[j%n] = !placed[j%n]
			}
		}
	}
	out := make([]bool, n)
	for i := uint(0); i < n; i++ {
		out[i] = a[i] != placed[i]
	}
	return FromBits(out)
}

// GSelectIndex concatenates k history bits (high part) with n-k
// address bits (low part). When k >= n the index is just the low n
// history bits.
func GSelectIndex(addr, hist uint64, n, k uint) uint64 {
	if k >= n {
		return FromBits(ToBits(hist, n))
	}
	a := ToBits(addr, n-k)
	h := ToBits(hist, k)
	out := make([]bool, n)
	copy(out, a)
	copy(out[n-k:], h)
	return FromBits(out)
}

// --- the skewing family (section 4.2) ------------------------------

// H applies the paper's bijection on n-bit strings:
//
//	H(y_n, y_{n-1}, ..., y_1) = (y_n XOR y_1, y_n, y_{n-1}, ..., y_2)
//
// transcribed positionally: output bit n is y_n XOR y_1, and output
// bit i is y_{i+1} for i in [1, n-1].
func H(y uint64, n uint) uint64 {
	checkWidth(n)
	in := ToBits(y, n)
	out := make([]bool, n)
	out[n-1] = in[n-1] != in[0] // y_n XOR y_1
	for i := uint(0); i+1 < n; i++ {
		out[i] = in[i+1]
	}
	return FromBits(out)
}

// Hinv applies the inverse of H, derived by solving the definition:
// if z = H(y) then y_i = z_{i-1} for i in [2, n], and
// y_1 = z_n XOR y_n = z_n XOR z_{n-1}.
func Hinv(z uint64, n uint) uint64 {
	checkWidth(n)
	in := ToBits(z, n)
	out := make([]bool, n)
	for i := uint(1); i < n; i++ {
		out[i] = in[i-1]
	}
	out[0] = in[n-1] != in[n-2]
	return FromBits(out)
}

// checkWidth bounds the skew index width: below 2 bits the shift
// structure of H degenerates (y_n and y_1 coincide).
func checkWidth(n uint) {
	if n < 2 || n > 30 {
		panic(fmt.Sprintf("refmodel: skew index width %d out of range [2,30]", n))
	}
}

// SplitV decomposes the information vector V into (V3, V2, V1) with V1
// the low n bits and V2 the next n bits, as in section 4.2.
func SplitV(v uint64, n uint) (v3, v2, v1 uint64) {
	v1 = FromBits(ToBits(v, n))
	v2 = FromBits(ToBits(v>>n, n))
	v3 = v >> (2 * n)
	return
}

// xorN XORs two n-bit values bitwise (spelled out on bit strings to
// stay in the naive idiom).
func xorN(a, b uint64, n uint) uint64 {
	x, y := ToBits(a, n), ToBits(b, n)
	out := make([]bool, n)
	for i := uint(0); i < n; i++ {
		out[i] = x[i] != y[i]
	}
	return FromBits(out)
}

// F0 is the bank-0 skewing function f0(V) = H(V1) XOR Hinv(V2) XOR V2.
func F0(v uint64, n uint) uint64 {
	_, v2, v1 := SplitV(v, n)
	return xorN(xorN(H(v1, n), Hinv(v2, n), n), v2, n)
}

// F1 is the bank-1 skewing function f1(V) = H(V1) XOR Hinv(V2) XOR V1.
func F1(v uint64, n uint) uint64 {
	_, v2, v1 := SplitV(v, n)
	return xorN(xorN(H(v1, n), Hinv(v2, n), n), v1, n)
}

// F2 is the bank-2 skewing function f2(V) = Hinv(V1) XOR H(V2) XOR V2.
func F2(v uint64, n uint) uint64 {
	_, v2, v1 := SplitV(v, n)
	return xorN(xorN(Hinv(v1, n), H(v2, n), n), v2, n)
}

// Vector builds the information vector V = (a_N ... a_2, h_k ... h_1):
// the word-aligned address above k bits of global history.
func Vector(addr, hist uint64, k uint) uint64 {
	h := FromBits(ToBits(hist, k))
	return (addr << k) | h
}

// --- history register ----------------------------------------------

// SpecHistory is the global history as the paper describes it: the
// record of the last k branch outcomes, newest first. It is kept as
// an explicit outcome list rather than a shift register.
type SpecHistory struct {
	k        uint
	outcomes []bool // outcomes[0] is the newest (h_1)
}

// NewSpecHistory returns an empty k-outcome history.
func NewSpecHistory(k uint) *SpecHistory {
	return &SpecHistory{k: k}
}

// Shift records an outcome as the newest history bit.
func (h *SpecHistory) Shift(taken bool) {
	h.outcomes = append([]bool{taken}, h.outcomes...)
	if uint(len(h.outcomes)) > h.k {
		h.outcomes = h.outcomes[:h.k]
	}
}

// Value returns the history register value: outcome j (0-based,
// newest first) contributes bit j. Outcomes not yet observed read as
// not-taken, matching an initially zero register.
func (h *SpecHistory) Value() uint64 {
	b := make([]bool, h.k)
	copy(b, h.outcomes)
	return FromBits(b)
}

// Reset clears the history.
func (h *SpecHistory) Reset() { h.outcomes = nil }
