package kernel

import "sync"

// Joint transition tables fold a skewed kernel's whole vote-and-train
// step into one load. Each step reads every bank's counter state; the
// prediction, the mispredict and every bank's next state are a pure
// function of those states and the outcome, so they are tabulated once
// per (counter width, policy) and looked up by the states themselves,
// one 4-bit field per state (2-bit fields for 2Bc-gskew's 2-bit
// counters):
//
//	skewed, e-gskew  index s0 | s1<<4 | s2<<8 | t<<12
//	                 entry n0 | n1<<8 | n2<<16 | miss<<24
//	2Bc-gskew        index sBim | sG0<<2 | sG1<<4 | sMeta<<6 | t<<8
//	                 entry nBim | nG0<<8 | nG1<<16 | nMeta<<24 | miss<<32
//
// A bank that does not train keeps its state, so its next-state field
// is the state itself and the loops store every bank unconditionally.
// Fixed field widths keep the index arithmetic to constant shifts:
// packing w-bit fields needs variable shifts, whose count register
// made the skewed loop spill, and measured about 10% slower per step
// (a loop microbenchmark on a 2-vCPU host). For counters narrower than
// 4 bits only the entries whose fields hold valid states are reached;
// the rest hold the automaton's clamped transitions.
//
// The builders evaluate the rules branch-free on 0/1 predictions and
// all-or-nothing write masks; joint_test.go states the same rules in
// the executable specification's terms (refmodel.SpecCounter) and
// checks the tables and the table-driven loops against them.

// MaxSkewCtrBits is the widest counter the three-bank skewed kernels
// accept: the joint index gives each state 4 bits, so a table has
// 2^13 4-byte entries (32 KiB). Wider counters stay on the predictor's
// interface path.
const MaxSkewCtrBits = 4

// skewJointLen is the entry count of a skewed joint table.
const skewJointLen = 1 << (3*MaxSkewCtrBits + 1)

// Joint-entry field positions: bank j's next state is byte j, the miss
// bit sits above the last bank's byte.
const (
	skewMissShift = 24 // three banks
	tbcMissShift  = 32 // BIM, G0, G1, META
)

var (
	jointMu sync.Mutex
	// skewJoints is keyed by counter width and policy (1 = partial).
	skewJoints [MaxSkewCtrBits + 1][2]*[skewJointLen]uint32
	// tbcJoints is keyed by metaFlip.
	tbcJoints [2]*[512]uint64
)

// skewJointFor returns the shared joint table of the three-bank skewed
// kernels for bits-wide counters under the given policy, building it on
// first use. bits must be in [1, MaxSkewCtrBits].
//
// The rules (§4–5): the prediction is the majority of the three banks;
// total update trains every bank; partial update, when the vote was
// right, trains only the banks that agreed with it. With 0/1
// predictions p_j and outcome t, the majority is (p0+p1+p2)>>1 and
// wrong is maj^t. Bank j skips training only under partial update when
// the vote was right and p_j dissented, so its train mask (all ones or
// zero) is (partial & ^wrong & (p_j^t)) - 1, and its next state is
// s ^ ((s ^ next) & mask).
func skewJointFor(bits uint, partial bool) *[skewJointLen]uint32 {
	pol := bit(partial)
	jointMu.Lock()
	defer jointMu.Unlock()
	if t := skewJoints[bits][pol]; t != nil {
		return t
	}
	aut := automatonFor(bits)
	tab := new([skewJointLen]uint32)
	for j := range tab {
		s0, s1, s2, t := uint8(j&15), uint8(j>>4&15), uint8(j>>8&15), uint8(j>>12)
		p0, p1, p2 := aut.bit[s0], aut.bit[s1], aut.bit[s2]
		wrong := (p0+p1+p2)>>1 ^ t
		keep := pol &^ wrong
		n0 := s0 ^ (s0^aut.next[uint16(s0)<<1|uint16(t)])&(keep&(p0^t)-1)
		n1 := s1 ^ (s1^aut.next[uint16(s1)<<1|uint16(t)])&(keep&(p1^t)-1)
		n2 := s2 ^ (s2^aut.next[uint16(s2)<<1|uint16(t)])&(keep&(p2^t)-1)
		tab[j] = uint32(n0) | uint32(n1)<<8 | uint32(n2)<<16 | uint32(wrong)<<skewMissShift
	}
	skewJoints[bits][pol] = tab
	return tab
}

// tbcJointFor returns the shared joint table of the 2Bc-gskew kernel
// (2-bit counters) for the given chooser flip, building it on first
// use. flip is 1 when the predictor carries the planted
// chooser-inversion fault (predictor.TamperTwoBcMeta), 0 otherwise.
//
// The rules (Seznec et al., ISCA 2002; see ev8.go): META picks between
// BIM and the majority of BIM, G0 and G1. When the majority is in use
// and right, only the direction tables that agreed with it train; when
// BIM is in use and right, BIM alone trains; on a mispredict all three
// train. META trains only when the two strategies differed, toward the
// one that was right. With 0/1 predictions pb, p0, p1, chooser bit pm
// and outcome t:
//
//	maj     = (pb+p0+p1)>>1
//	overall = pb ^ (pm & (maj^pb))   (the chooser picks maj or BIM)
//	wrong   = overall ^ t
//	BIM skips training iff pm & ^wrong & (pb^t)      (majority right, BIM dissented)
//	Gj  skips training iff ^wrong & (^pm | (pj^t))   (right, and BIM in use or Gj dissented)
//	META trains iff maj^pb, toward 1^maj^t^flip      (the strategies differed)
//
// and each next state is s ^ ((s ^ next) & mask) with mask = skip-1
// (META: 0-(maj^pb)).
func tbcJointFor(flip uint8) *[512]uint64 {
	jointMu.Lock()
	defer jointMu.Unlock()
	if t := tbcJoints[flip]; t != nil {
		return t
	}
	aut := automatonFor(2)
	tab := new([512]uint64)
	for j := range tab {
		sB, s0, s1, sM := uint8(j&3), uint8(j>>2&3), uint8(j>>4&3), uint8(j>>6&3)
		t := uint8(j >> 8)
		bb, b0, b1, pm := aut.bit[sB], aut.bit[s0], aut.bit[s1], aut.bit[sM]
		maj := (bb + b0 + b1) >> 1
		wrong := bb ^ pm&(maj^bb) ^ t
		right := wrong ^ 1
		gSkip := right &^ pm
		nB := sB ^ (sB^aut.next[uint16(sB)<<1|uint16(t)])&(pm&right&(bb^t)-1)
		n0 := s0 ^ (s0^aut.next[uint16(s0)<<1|uint16(t)])&((gSkip|right&(b0^t))-1)
		n1 := s1 ^ (s1^aut.next[uint16(s1)<<1|uint16(t)])&((gSkip|right&(b1^t))-1)
		nM := sM ^ (sM^aut.next[uint16(sM)<<1|uint16(1^maj^t^flip)])&-(maj^bb)
		tab[j] = uint64(nB) | uint64(n0)<<8 | uint64(n1)<<16 | uint64(nM)<<24 | uint64(wrong)<<tbcMissShift
	}
	tbcJoints[flip] = tab
	return tab
}
