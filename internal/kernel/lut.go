package kernel

import (
	"sync"

	"gskew/internal/skewfn"
)

// The skew-index lowering rests on the GF(2) linearity of the paper's
// section 4.2 index functions. H is a bit permutation followed by a
// single XOR of two bits, so H — and therefore H⁻¹ — is a linear map
// on the vector space GF(2)^n, and each bank function
//
//	f0(V) = H(V1) ^ Hinv(V2) ^ V2
//	f1(V) = H(V1) ^ Hinv(V2) ^ V1
//	f2(V) = Hinv(V1) ^ H(V2) ^ V2
//
// is an XOR of linear images of the two disjoint bit substrings V1
// (low n bits of V) and V2 (next n bits). A linear map applied to a
// split input obeys L(x_hi ^ x_lo) = L(x_hi) ^ L(x_lo), so each f_k
// factors exactly into two table lookups:
//
//	f_k(V) = lutV1_k[V & mask] ^ lutV2_k[(V >> n) & mask]
//
// The V1-side and V2-side images of the three bank functions are
// packed into one uint64 per entry (21-bit fields: f0 | f1<<21 |
// f2<<42). XOR distributes over the disjoint fields, so
//
//	packed(V) = pa[V1] ^ pb[V2]
//
// yields all three bank indices of one vector in two loads instead of
// six; at the paper's bank sizes six scattered per-function tables
// overflow L1 while the two packed tables are two cache-line touches
// per branch. The three-bank skewed kernels index every bank with the
// same vector; 2Bc-gskew hashes two vectors (short history for G0 and
// META, long for G1), so it makes one packed lookup pair per vector
// and keeps the fields it needs from each.

// MaxLUTBits bounds the bank index width the compiled kernels
// support. At 18 bits (the paper's largest 256k-entry tables) one LUT
// set costs 4 MiB; wider configurations fall back to the generic
// predictor interface rather than trade memory for dispatch.
// 3*MaxLUTBits must stay under 64 for the packing.
const MaxLUTBits = 18

// lutField is the bit width of one bank's field in a packed entry.
const lutField = 21

// lutSet holds the packed lookup tables for one index width:
// f0|f1<<21|f2<<42 = pa[V1] ^ pb[V2].
type lutSet struct {
	pa, pb []uint64
}

// lutCache shares immutable LUT sets across kernels: the tables depend
// only on the index width, and experiment sweeps compile many kernels
// of the same geometry (possibly concurrently, under the scheduler).
var lutCache sync.Map // uint (index width) -> *lutSet

// lutsFor returns the shared LUT set for n-bit bank indices, building
// it on first use. Entries are computed with the same skewfn routines
// the interface path uses, so agreement is by construction and the
// differential harness checks it end to end.
func lutsFor(n uint) *lutSet {
	if v, ok := lutCache.Load(n); ok {
		return v.(*lutSet)
	}
	sk := skewfn.New(n)
	size := uint64(1) << n
	ls := &lutSet{pa: make([]uint64, size), pb: make([]uint64, size)}
	for x := uint64(0); x < size; x++ {
		h, hinv := sk.H(x), sk.Hinv(x)
		// V1 sides: f0 H(V1), f1 H(V1)^V1, f2 Hinv(V1).
		ls.pa[x] = h | (h^x)<<lutField | hinv<<(2*lutField)
		// V2 sides: f0 Hinv(V2)^V2, f1 Hinv(V2), f2 H(V2)^V2.
		ls.pb[x] = hinv ^ x | hinv<<lutField | (h^x)<<(2*lutField)
	}
	actual, _ := lutCache.LoadOrStore(n, ls)
	return actual.(*lutSet)
}

// automaton is a saturating counter lowered to transition tables: a
// 256-entry predict table (a 0/1 byte, so the branch-free loops can
// combine predictions arithmetically) and a 512-entry next-state
// table indexed by state<<1 | taken. The single-table kernels
// (bimodal, gshare, gselect) and TAGE embed it by value, which keeps
// the lookups one load away from the kernel's other fields; the skewed
// kernels step through joint tables built from it (joint.go).
type automaton struct {
	next [512]uint8
	bit  [256]uint8 // 1 when the state predicts taken
}

// automata caches the (at most eight) distinct counter automata.
var (
	automataMu sync.Mutex
	automata   [9]*automaton // indexed by counter width in bits
)

// automatonFor returns the transition tables for a width-bits
// saturating counter, matching counter.Table semantics exactly:
// predict taken when state > max/2, saturate at 0 and max.
func automatonFor(bits uint) automaton {
	automataMu.Lock()
	defer automataMu.Unlock()
	if a := automata[bits]; a != nil {
		return *a
	}
	a := &automaton{}
	max := int(uint(1)<<bits - 1)
	mid := max / 2
	for s := 0; s < 256; s++ {
		st := s
		if st > max {
			st = max // states beyond max are unreachable; clamp anyway
		}
		if st > mid {
			a.bit[s] = 1
		}
		dn, up := st, st
		if dn > 0 {
			dn--
		}
		if up < max {
			up++
		}
		a.next[s<<1] = uint8(dn)
		a.next[s<<1|1] = uint8(up)
	}
	automata[bits] = a
	return *a
}
