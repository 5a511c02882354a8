// Package skewfn implements the inter-bank dispersion ("skewing")
// functions used by the skewed branch predictor, exactly as defined in
// section 4.2 of the paper (and originally proposed for skewed
// associative caches by Seznec and Bodin).
//
// Given an information vector V — the concatenation of the branch
// address and the global history — decomposed into bit substrings
// (V3, V2, V1) where V1 and V2 are n-bit strings, the three bank index
// functions are
//
//	f0(V) = H(V1) ^ Hinv(V2) ^ V2
//	f1(V) = H(V1) ^ Hinv(V2) ^ V1
//	f2(V) = Hinv(V1) ^ H(V2) ^ V2
//
// where H is the bijection on n-bit strings
//
//	H(y_n, y_{n-1}, ..., y_1) = (y_n ^ y_1, y_n, y_{n-1}, ..., y_3, y_2)
//
// i.e. a one-bit right shift whose vacated most-significant bit is
// filled with the XOR of the old most- and least-significant bits, and
// Hinv is its inverse.
//
// The defining quality of this family is dispersion: vectors that
// collide under one function tend not to collide under the others, so
// a (address, history) pair aliased in one bank usually survives the
// majority vote. The package documents and tests the precise subfamily
// properties that hold (see the property tests): in particular, two
// vectors with equal V2 but different V1 never collide in any bank, and
// the maps y -> y^H(y) and y -> y^Hinv(y) are themselves bijections for
// the index widths used here, which bounds how correlated collisions
// across banks can be.
package skewfn

import "fmt"

// MinBits and MaxBits bound the supported bank-index width. Below 2
// bits the shift structure of H degenerates; above 30 bits the tables
// would be far beyond any practical predictor.
const (
	MinBits = 2
	MaxBits = 30
)

// Skewer computes the three bank-index functions for a fixed index
// width n. Construct with New.
type Skewer struct {
	n    uint
	mask uint64
	// rotSkew is 0, or 1 when the rotation fault is planted
	// (TamperRotation).
	rotSkew uint
}

// New returns a Skewer for banks of 2^n entries. It panics if n is
// outside [MinBits, MaxBits].
func New(n uint) *Skewer {
	if n < MinBits || n > MaxBits {
		panic(fmt.Sprintf("skewfn: index width %d out of range [%d,%d]", n, MinBits, MaxBits))
	}
	return &Skewer{n: n, mask: uint64(1)<<n - 1}
}

// Bits returns the index width n.
func (s *Skewer) Bits() uint { return s.n }

// Mask returns the n-bit mask 2^n - 1.
func (s *Skewer) Mask() uint64 { return s.mask }

// H applies the skewing bijection to the low n bits of y. The result
// is an n-bit value:
//
//	out = (y >> 1) with MSB set to (old MSB) ^ (old LSB)
func (s *Skewer) H(y uint64) uint64 {
	y &= s.mask
	msb := (y >> (s.n - 1)) & 1
	lsb := y & 1
	return (y >> 1) | ((msb ^ lsb) << (s.n - 1))
}

// Hinv applies the inverse of H to the low n bits of y.
func (s *Skewer) Hinv(y uint64) uint64 {
	y &= s.mask
	// Bits n-2..0 of y are the old bits n-1..1; the old MSB is bit n-2
	// of y (for n >= 2), and the old LSB is reconstructed from the new
	// MSB: newMSB = oldMSB ^ oldLSB.
	high := (y & (s.mask >> 1)) << 1
	oldMSB := (y >> (s.n - 2)) & 1
	newMSB := (y >> (s.n - 1)) & 1
	return high | (oldMSB ^ newMSB)
}

// Split decomposes an information vector into (V3, V2, V1) with V1 and
// V2 each n bits wide: V1 is the low n bits, V2 the next n bits, V3
// whatever remains above.
func (s *Skewer) Split(v uint64) (v3, v2, v1 uint64) {
	v1 = v & s.mask
	v2 = (v >> s.n) & s.mask
	v3 = v >> (2 * s.n)
	return
}

// F0 computes the bank-0 index: H(V1) ^ Hinv(V2) ^ V2.
func (s *Skewer) F0(v uint64) uint64 {
	_, v2, v1 := s.Split(v)
	return s.H(v1) ^ s.Hinv(v2) ^ v2
}

// F1 computes the bank-1 index: H(V1) ^ Hinv(V2) ^ V1.
func (s *Skewer) F1(v uint64) uint64 {
	_, v2, v1 := s.Split(v)
	return s.H(v1) ^ s.Hinv(v2) ^ v1
}

// F2 computes the bank-2 index: Hinv(V1) ^ H(V2) ^ V2.
func (s *Skewer) F2(v uint64) uint64 {
	_, v2, v1 := s.Split(v)
	return s.Hinv(v1) ^ s.H(v2) ^ v2
}

// Index computes the index for bank k. Banks beyond the canonical three
// (used by 5-bank and larger skewed configurations) are derived by
// iterating H on the f_{k mod 3} result with a bank-dependent rotation
// of the vector, preserving the full-period dispersion of the base
// family while keeping each function distinct.
func (s *Skewer) Index(k int, v uint64) uint64 {
	if k < 0 {
		panic("skewfn: negative bank")
	}
	switch k {
	case 0:
		return s.F0(v)
	case 1:
		return s.F1(v)
	case 2:
		return s.F2(v)
	}
	// Higher banks: re-skew the vector by mixing V3 in and iterating H.
	// Each extra bank applies one more round of H to a rotated split so
	// that no two banks share an index function.
	rot := (uint(k-2) - s.rotSkew) % s.n
	v3, v2, v1 := s.Split(v)
	rv1 := ((v1 << rot) | (v1 >> (s.n - rot))) & s.mask
	base := s.Index(k%3, (v3<<(2*s.n))|(v2<<s.n)|rv1)
	out := base
	for i := 0; i < (k-2+2)/3; i++ {
		out = s.H(out)
	}
	return out
}

// TamperRotation plants an off-by-one into the extra banks' vector
// rotation (bank k >= 3 rotates V1 by k-3 instead of k-2), for the
// differential harness's fault-injection selftest.
func (s *Skewer) TamperRotation() { s.rotSkew = 1 }

// Exact reports whether s computes the functions as defined (no
// planted fault), so tables derived from any Skewer of the same width
// may stand in for it.
func (s *Skewer) Exact() bool { return s.rotSkew == 0 }

// Indices fills dst with the bank indices for v across len(dst) banks.
func (s *Skewer) Indices(dst []uint64, v uint64) {
	if len(dst) == 3 {
		// The canonical three functions share subexpressions:
		// H(V1)^Hinv(V2) appears in both f0 and f1, so the whole
		// triple needs four H-applications and one split.
		_, v2, v1 := s.Split(v)
		a := s.H(v1) ^ s.Hinv(v2)
		dst[0] = a ^ v2
		dst[1] = a ^ v1
		dst[2] = s.Hinv(v1) ^ s.H(v2) ^ v2
		return
	}
	for k := range dst {
		dst[k] = s.Index(k, v)
	}
}
