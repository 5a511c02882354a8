package kernel

import (
	"sync"

	"gskew/internal/skewfn"
)

// The two skewed shapes beyond the three-bank private-counter family:
// wider skews (the paper's five-bank question, section 5.1) and the
// shared-hysteresis encoding (section 7, the Alpha EV8's distributed
// encoding). Each has its own kernel type, so the three-bank loop and
// the bitsliced group lowering (lower64) never see them.

// MaxSkewBanks is the widest skew the M-bank kernel compiles: its
// packed LUT entries hold three 21-bit bank fields per word, at most
// three words.
const MaxSkewBanks = 9

// M-bank LUTs. Every bank function f_k of skewfn.Index is GF(2)-linear
// with f_k(0) = 0 (H, H⁻¹ and the bank-dependent rotation of V1 are
// all linear), so, as for the three canonical functions (lut.go),
//
//	f_k(V) = f_k(V1) ^ f_k(V2 << n)
//
// and each bank's index is the XOR of a V1-side and a V2-side lookup.
// Bank k's field sits in word k/3, at bit (k%3)*lutField, of a
// words-wide entry, and entry x occupies pa[x*words : (x+1)*words]
// (pb likewise), so one reference reads two adjacent runs of words.
type mbankLUTs struct {
	words  int
	pa, pb []uint64
}

// mbankKey identifies a shared M-bank LUT set.
type mbankKey struct {
	n     uint
	banks int
}

// mbankLUTCache shares exact M-bank LUT sets across kernels, as
// lutCache shares the three-bank ones.
var mbankLUTCache sync.Map // mbankKey -> *mbankLUTs

// mbankLUTsFor returns the LUT set tabulating sk's first banks
// functions. Sets of exact skewers are cached per (n, banks); a
// skewer carrying a planted fault gets its own set, so the fault
// stays visible on the kernel path and out of the cache.
func mbankLUTsFor(sk *skewfn.Skewer, banks int) *mbankLUTs {
	key := mbankKey{n: sk.Bits(), banks: banks}
	if sk.Exact() {
		if v, ok := mbankLUTCache.Load(key); ok {
			return v.(*mbankLUTs)
		}
	}
	n := sk.Bits()
	size := uint64(1) << n
	words := (banks + 2) / 3
	ls := &mbankLUTs{words: words, pa: make([]uint64, size*uint64(words)), pb: make([]uint64, size*uint64(words))}
	for x := uint64(0); x < size; x++ {
		for k := 0; k < banks; k++ {
			at, shift := x*uint64(words)+uint64(k/3), uint(k%3)*lutField
			ls.pa[at] |= sk.Index(k, x) << shift
			ls.pb[at] |= sk.Index(k, x<<n) << shift
		}
	}
	if !sk.Exact() {
		return ls
	}
	actual, _ := mbankLUTCache.LoadOrStore(key, ls)
	return actual.(*mbankLUTs)
}

// mbankJoints caches M-bank joint tables by (banks, counter width,
// policy).
var mbankJoints sync.Map // [3]int -> []uint16

// mbankJointFor returns the joint transition table of an M-bank skew
// with bits-wide counters (1 or 2: every state fits a 2-bit field)
// under the given policy, building it on first use. It is skewJointFor
// over M states:
//
//	index s_0 | s_1<<2 | ... | s_(M-1)<<2(M-1) | t<<2M
//	entry n_0 | n_1<<2 | ... | n_(M-1)<<2(M-1) | miss<<2M
//
// with the rules of skewStep.
func mbankJointFor(banks int, bits uint, partial bool) []uint16 {
	key := [3]int{banks, int(bits), int(bit(partial))}
	if v, ok := mbankJoints.Load(key); ok {
		return v.([]uint16)
	}
	aut := automatonFor(bits)
	tab := make([]uint16, 1<<(2*banks+1))
	s := make([]uint8, banks)
	for x := range tab {
		for j := range s {
			s[j] = uint8(x >> (2 * j) & 3)
		}
		e := uint16(skewStep(&aut, bit(partial), s, uint8(x>>(2*banks)))) << (2 * banks)
		for j, c := range s {
			e |= uint16(c) << (2 * j)
		}
		tab[x] = e
	}
	actual, _ := mbankJoints.LoadOrStore(key, tab)
	return actual.([]uint16)
}

// mbankKernel is the skewed predictor with five or more banks of
// private counters.
type mbankKernel struct {
	aut   automaton
	joint []uint16  // mbankJointFor, when the shape has one; nil otherwise
	banks [][]uint8 // alias the predictor's bank cells
	// pa and pb are the packed LUTs (mbankLUTs), words per entry.
	pa, pb    []uint64
	words     int
	bankMask  uint64
	n         uint
	kp        uint   // predictor history length: V = (pc << kp) | hist
	vHistMask uint64 // runner mask ∧ predictor history mask
	partial   bool
}

// Step is a one-element StepBatch (see skewKernel.Step).
func (k *mbankKernel) Step(pc, hist uint64, taken bool) bool {
	s := [1]Step{{PC: pc, Hist: hist, Taken: taken}}
	return (k.StepBatch(s[:]) == 0) == taken
}

// StepBatch predicts each step by the majority of the banks and
// trains them under the kernel's update policy, as skewKernel does for
// three. The experiments' shapes have unrolled loops: five banks of 1-
// or 2-bit counters step through a joint table (step5), seven banks
// vote by summed predict bits (step7). Any other shape gathers the
// banks' states, steps them with skewStep and scatters them back.
func (k *mbankKernel) StepBatch(steps []Step) int {
	banks := k.banks
	nb := len(banks)
	if nb == 0 || nb > MaxSkewBanks {
		return 0
	}
	size := len(banks[0])
	words := k.words
	if size == 0 || words*3 < nb || len(k.pa) < size*words || len(k.pb) < size*words {
		return 0
	}
	for _, b := range banks {
		if len(b) < size {
			return 0
		}
	}
	switch {
	case nb == 5 && k.joint != nil:
		return k.step5(steps, size)
	case nb == 7:
		return k.step7(steps, size)
	}
	pa, pb := k.pa, k.pb
	aut := &k.aut
	m := k.bankMask & uint64(size-1)
	kp, n, vHistMask := k.kp&63, k.n&63, k.vHistMask
	pol := bit(k.partial)
	var idx [3 * ((MaxSkewBanks + 2) / 3)]uint64
	var st [MaxSkewBanks]uint8
	mis := 0
	for i := range steps {
		s := &steps[i]
		v := s.PC<<kp | s.Hist&vHistMask
		a, b := int(v&m)*words, int(v>>n&m)*words
		for w := 0; w < words; w++ {
			pk := pa[a+w] ^ pb[b+w]
			idx[3*w] = pk & m
			idx[3*w+1] = pk >> lutField & m
			idx[3*w+2] = pk >> (2 * lutField) & m
		}
		for j, bank := range banks {
			st[j] = bank[idx[j]]
		}
		mis += int(skewStep(aut, pol, st[:nb], bit(s.Taken)))
		for j, bank := range banks {
			bank[idx[j]] = st[j]
		}
	}
	return mis
}

// step5 is StepBatch for five banks of 1- or 2-bit counters, through
// the 4 KiB joint table: the loop is skewKernel.StepBatch's with two
// packed-LUT word pairs (banks 0-2 and 3-4) and five bank loads
// gathered into the 11-bit joint index. Every slice is resliced to one
// length and every index masked by it, so the bounds checks fold away.
func (k *mbankKernel) step5(steps []Step, size int) int {
	b0, b1, b2, b3, b4 := k.banks[0], k.banks[1], k.banks[2], k.banks[3], k.banks[4]
	b1, b2, b3, b4 = b1[:size], b2[:size], b3[:size], b4[:size]
	joint := k.joint
	if len(joint) < 1<<11 {
		return 0
	}
	joint = joint[:1<<11]
	// Two words per entry: entry x's words are 2x and 2x+1.
	pa, pb := k.pa[:2*size], k.pb[:2*size]
	m, wm := k.bankMask&uint64(size-1), uint64(2*size-1)
	kp, n, vHistMask := k.kp&63, k.n&63, k.vHistMask
	mis := 0
	for i := range steps {
		s := &steps[i]
		v := s.PC<<kp | s.Hist&vHistMask
		a, b := v<<1&wm, v>>n<<1&wm
		lo := pa[a] ^ pb[b]
		hi := pa[a|1] ^ pb[b|1]
		i0, i1, i2 := lo&m, lo>>lutField&m, lo>>(2*lutField)&m
		i3, i4 := hi&m, hi>>lutField&m
		e := joint[(uint(b0[i0])|uint(b1[i1])<<2|uint(b2[i2])<<4|uint(b3[i3])<<6|uint(b4[i4])<<8|uint(bit(s.Taken))<<10)&(1<<11-1)]
		b0[i0], b1[i1], b2[i2], b3[i3], b4[i4] = uint8(e)&3, uint8(e>>2)&3, uint8(e>>4)&3, uint8(e>>6)&3, uint8(e>>8)&3
		mis += int(e >> 10)
	}
	return mis
}

// step7 is StepBatch for seven banks. Their joint table would not fit
// in L1 (2^15 entries even with 2-bit fields), so the vote sums the
// banks' predict bits and each bank steps through the automaton under
// the train mask, unrolled over three packed-LUT word pairs (banks 0-2,
// 3-5 and 6) with every index masked as in step5.
func (k *mbankKernel) step7(steps []Step, size int) int {
	b0, b1, b2, b3, b4, b5, b6 := k.banks[0], k.banks[1], k.banks[2], k.banks[3], k.banks[4], k.banks[5], k.banks[6]
	b0, b1, b2, b3, b4, b5, b6 = b0[:size], b1[:size], b2[:size], b3[:size], b4[:size], b5[:size], b6[:size]
	pa, pb := k.pa[:3*size], k.pb[:3*size]
	aut := &k.aut
	m := k.bankMask & uint64(size-1)
	kp, n, vHistMask := k.kp&63, k.n&63, k.vHistMask
	pol := bit(k.partial)
	mis := 0
	for i := range steps {
		s := &steps[i]
		v := s.PC<<kp | s.Hist&vHistMask
		a, b := (v&m)*3, (v>>n&m)*3
		w0 := pa[a] ^ pb[b]
		w1 := pa[a+1] ^ pb[b+1]
		w2 := pa[a+2] ^ pb[b+2]
		i0, i1, i2 := w0&m, w0>>lutField&m, w0>>(2*lutField)&m
		i3, i4, i5 := w1&m, w1>>lutField&m, w1>>(2*lutField)&m
		i6 := w2 & m
		c0, c1, c2, c3, c4, c5, c6 := b0[i0], b1[i1], b2[i2], b3[i3], b4[i4], b5[i5], b6[i6]
		p0, p1, p2, p3, p4, p5, p6 := aut.bit[c0], aut.bit[c1], aut.bit[c2], aut.bit[c3], aut.bit[c4], aut.bit[c5], aut.bit[c6]
		t := bit(s.Taken)
		wrong := (p0+p1+p2+p3+p4+p5+p6)>>2 ^ t
		keep := pol &^ wrong
		tt := uint16(t)
		b0[i0] = c0 ^ (c0^aut.next[uint16(c0)<<1|tt])&(keep&(p0^t)-1)
		b1[i1] = c1 ^ (c1^aut.next[uint16(c1)<<1|tt])&(keep&(p1^t)-1)
		b2[i2] = c2 ^ (c2^aut.next[uint16(c2)<<1|tt])&(keep&(p2^t)-1)
		b3[i3] = c3 ^ (c3^aut.next[uint16(c3)<<1|tt])&(keep&(p3^t)-1)
		b4[i4] = c4 ^ (c4^aut.next[uint16(c4)<<1|tt])&(keep&(p4^t)-1)
		b5[i5] = c5 ^ (c5^aut.next[uint16(c5)<<1|tt])&(keep&(p5^t)-1)
		b6[i6] = c6 ^ (c6^aut.next[uint16(c6)<<1|tt])&(keep&(p6^t)-1)
		mis += int(wrong)
	}
	return mis
}

// splitSkewKernel is the three-bank skewed (or enhanced) predictor
// over shared-hysteresis banks. An entry's prediction bit p and its
// group's hysteresis bit h encode a 2-bit counter; the composite state
//
//	s = p<<1 | (h^p^1)
//
// maps (p, h) = (0, strong), (0, weak), (1, weak), (1, strong) to
// 0, 1, 2, 3, and the encoding's transitions (counter.SplitTable) are
// exactly the 2-bit counter's over s. So the kernel gathers s for each
// bank, steps all three through the 2-bit skewed joint table
// (skewJointFor) and scatters the next states back: p' = s'>>1 and
// h' = (s' ^ s'>>1 ^ 1) & 1.
type splitSkewKernel struct {
	joint *[skewJointLen]uint32
	// p0..p2 alias the banks' prediction bits, h0..h2 their hysteresis
	// bits; entry i's group is i >> hShift.
	p0, p1, p2 []uint8
	h0, h1, h2 []uint8
	hShift     uint
	// pa, pb are the three-bank packed LUT halves (lutsFor).
	pa, pb    []uint64
	bankMask  uint64
	n         uint
	kp        uint
	vHistMask uint64
	partial   bool
	enhanced  bool
}

// Step is a one-element StepBatch (see skewKernel.Step).
func (k *splitSkewKernel) Step(pc, hist uint64, taken bool) bool {
	s := [1]Step{{PC: pc, Hist: hist, Taken: taken}}
	return (k.StepBatch(s[:]) == 0) == taken
}

// StepBatch is skewKernel.StepBatch with a gather before the joint
// lookup and a scatter after it. Every group array holds a power of
// two entries (2^n entries per bank, groups of 2^hShift), so group
// indices are masked by its length, as entry indices are by the bank
// size.
func (k *splitSkewKernel) StepBatch(steps []Step) int {
	pa, pb := k.pa, k.pb
	p0, p1, p2 := k.p0, k.p1, k.p2
	h0, h1, h2 := k.h0, k.h1, k.h2
	joint := k.joint
	size, groups := len(p0), len(h0)
	if size == 0 || groups == 0 || joint == nil || len(pa) < size || len(pb) < size ||
		len(p1) < size || len(p2) < size || len(h1) < groups || len(h2) < groups {
		return 0
	}
	pa, pb, p1, p2 = pa[:size], pb[:size], p1[:size], p2[:size]
	h1, h2 = h1[:groups], h2[:groups]
	m := k.bankMask & uint64(size-1)
	gm := uint64(groups - 1)
	kp, n, sh, vHistMask := k.kp&63, k.n&63, k.hShift&63, k.vHistMask
	eMask := uint64(0)
	if k.enhanced {
		eMask = ^uint64(0)
	}
	mis := 0
	for i := range steps {
		s := &steps[i]
		v := s.PC<<kp | s.Hist&vHistMask
		pk := pa[v&m] ^ pb[v>>n&m]
		i0 := (pk&^eMask | s.PC&eMask) & m
		i1 := pk >> lutField & m
		i2 := pk >> (2 * lutField) & m
		g0, g1, g2 := i0>>sh&gm, i1>>sh&gm, i2>>sh&gm
		q0, q1, q2 := p0[i0], p1[i1], p2[i2]
		s0 := q0<<1 | (h0[g0] ^ q0 ^ 1)
		s1 := q1<<1 | (h1[g1] ^ q1 ^ 1)
		s2 := q2<<1 | (h2[g2] ^ q2 ^ 1)
		e := joint[(uint(s0)|uint(s1)<<4|uint(s2)<<8|uint(bit(s.Taken))<<12)&(skewJointLen-1)]
		n0, n1, n2 := uint8(e), uint8(e>>8), uint8(e>>16)
		p0[i0], h0[g0] = n0>>1, (n0^n0>>1^1)&1
		p1[i1], h1[g1] = n1>>1, (n1^n1>>1^1)&1
		p2[i2], h2[g2] = n2>>1, (n2^n2>>1^1)&1
		mis += int(e >> skewMissShift)
	}
	return mis
}
