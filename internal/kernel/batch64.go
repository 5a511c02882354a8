package kernel

import "gskew/internal/predictor"

// 64-lane bitsliced kernels.
//
// The scalar kernels step the predictors of a sweep one at a time;
// here the per-lane 2-bit counters of up to 64 same-family predictors
// are gathered into bitplanes — bit j of a uint64 plane is lane j's
// bit — so one SWAR expression steps all lanes' saturating-counter
// automata, majority votes and mispredict comparisons at once.
//
// The 2-bit automaton in bitplane form (hi = prediction bit, lo =
// hysteresis bit; predict taken iff hi, exactly automatonFor(2)):
//
//	increment: hi' = hi|lo,  lo' = hi|^lo   (0→1→2→3→3)
//	decrement: hi' = hi&lo,  lo' = hi&^lo   (3→2→1→0→0)
//
// All lanes share one trace, so the taken mask is all-ones or
// all-zeros per step and the blend of the two transitions is
// branch-free. Index computation and the table gather/scatter stay
// scalar per lane — they are memory operations on per-lane tables and
// independent across lanes, so they overlap in the pipeline — while
// everything that was a data-dependent branch in the scalar kernels
// (mispredict counting, the majority vote, the partial-update policy)
// becomes straight-line mask arithmetic. Per-lane mispredict counts
// accumulate in vertical ripple-carry counters: plane p holds bit p of
// every lane's count, so counting a step is a couple of XOR/ANDs
// instead of 64 conditional increments.
//
// Lanes must not share counter storage (each lane is its own
// predictor); one lane's three skewed banks are distinct tables by
// construction. Each lane keeps its own uint8 table, aliased from the
// predictor, and a step gathers and scatters one byte per lane. The
// SWAR arithmetic amortises only the automaton and the counting,
// which does not pay for the gather: a group runs slower than its
// lanes' scalar kernels, so the simulator never forms one. The group
// stays for the bitsliced arm of cmd/verify, which checks it
// bit-for-bit against the scalar kernels and through them against the
// paper specification, and for the benchmark's group probe.

// MaxLanes is the lane capacity of one Group64: the bitplane word
// width.
const MaxLanes = 64

// group64Kind separates the two fused step shapes.
type group64Kind uint8

const (
	group64Single group64Kind = iota // bimodal / gshare / gselect
	group64Skew                      // gskewed / egskew, three banks
)

// singleLaneKind selects the per-lane index function.
const (
	laneBimodal = iota
	laneGShare
	laneGSelect
)

// singleLane is one single-table lane: the scalar kernel's fields
// flattened so the gather loop runs without interface dispatch. The
// cells slice aliases the lane predictor's own storage.
type singleLane struct {
	cells    []uint8
	idxMask  uint64
	histMask uint64 // gshare
	hMask    uint64 // gselect
	aMask    uint64 // gselect
	shift    uint
	n        uint
	kind     uint8
	fold     bool
	histOnly bool
	idx      uint64 // scratch: this step's gathered index
}

func (ln *singleLane) index(pc, hist uint64) uint64 {
	switch ln.kind {
	case laneBimodal:
		return pc & ln.idxMask
	case laneGShare:
		h := hist & ln.histMask
		if ln.fold {
			out := uint64(0)
			for h != 0 {
				out ^= h & ln.idxMask
				h >>= ln.n
			}
			h = out
		} else {
			h <<= ln.shift
		}
		return (pc ^ h) & ln.idxMask
	default: // laneGSelect
		if ln.histOnly {
			return hist & ln.hMask & ln.idxMask
		}
		return (hist&ln.hMask)<<ln.shift | pc&ln.aMask
	}
}

// skewLane is one three-bank skewed lane. The bank slices alias the
// lane predictor's own storage; pa/pb are the shared packed LUTs.
type skewLane struct {
	b0, b1, b2 []uint8
	pa, pb     []uint64
	bankMask   uint64
	vHistMask  uint64
	n, kp      uint
	enhanced   bool
	i0, i1, i2 uint64 // scratch: this step's gathered indices
}

// Group64 is a compiled bitsliced group of up to 64 same-shape lanes.
// StepBatch64 steps every lane through a shared block of staged
// conditionals, bit-identically to running each lane's scalar kernel
// over the same block.
type Group64 struct {
	kind        group64Kind
	single      []singleLane
	skew        []skewLane
	partialMask uint64 // skew: bit j set when lane j uses partial update
	laneMask    uint64 // bits 0..lanes-1
}

// stepChunk64 bounds one inner pass so the 16-plane vertical counters
// (per-lane counts < 2^16) cannot overflow.
const stepChunk64 = 8192

// lane64 is one compiled kernel lowered to a bitsliced lane: exactly
// one of single and skew is meaningful, as kind says.
type lane64 struct {
	kind    group64Kind
	single  singleLane
	skew    skewLane
	partial bool // skew: partial update policy
}

// lower64 lowers a compiled kernel to a bitsliced lane. ok is false
// when the kernel cannot be a lane: counters wider than 2 bits, or an
// organisation (2Bc-gskew, whose meta/bimodal training rules do not
// bitslice cleanly) that stays on its scalar kernel.
func lower64(k Kernel) (ln lane64, ok bool) {
	switch kk := k.(type) {
	case *bimodalKernel:
		ln.single = singleLane{kind: laneBimodal, cells: kk.cells, idxMask: kk.idxMask}
		return ln, kk.ctrBits == 2
	case *gshareKernel:
		ln.single = singleLane{
			kind: laneGShare, cells: kk.cells, idxMask: kk.idxMask,
			histMask: kk.histMask, shift: kk.shift, fold: kk.fold, n: kk.n,
		}
		return ln, kk.ctrBits == 2
	case *gselectKernel:
		ln.single = singleLane{
			kind: laneGSelect, cells: kk.cells, idxMask: kk.idxMask,
			hMask: kk.hMask, aMask: kk.aMask, shift: kk.shift, histOnly: kk.histOnly,
		}
		return ln, kk.ctrBits == 2
	case *skewKernel:
		ln.kind = group64Skew
		ln.skew = skewLane{
			b0: kk.b0, b1: kk.b1, b2: kk.b2,
			pa: kk.pa, pb: kk.pb,
			bankMask: kk.bankMask, vHistMask: kk.vHistMask,
			n: kk.n, kp: kk.kp, enhanced: kk.enhanced,
		}
		ln.partial = kk.partial
		return ln, kk.ctrBits == 2
	}
	return ln, false
}

// CompileGroup64 lowers up to 64 predictors into one bitsliced group.
// Every lane must compile to the same kernel shape — all single-table
// (bimodal/gshare/gselect, mixable) or all three-bank skewed
// (gskewed/egskew, policies and enhanced mixable per lane) — with
// 2-bit counters (the bitplane automaton is the 2-bit one; other
// widths stay scalar). histBits[i] is lane i's runner history length,
// exactly as passed to Compile. ok is false when any lane is
// ineligible; callers then keep the scalar per-lane path.
func CompileGroup64(preds []predictor.Predictor, histBits []uint) (*Group64, bool) {
	if len(preds) == 0 || len(preds) > MaxLanes || len(histBits) != len(preds) {
		return nil, false
	}
	g := &Group64{}
	for i, p := range preds {
		k, ok := Compile(p, histBits[i])
		if !ok {
			return nil, false
		}
		ln, ok := lower64(k)
		if !ok || !g.admit(ln.kind, i) {
			return nil, false
		}
		if ln.kind == group64Skew {
			g.skew = append(g.skew, ln.skew)
			if ln.partial {
				g.partialMask |= uint64(1) << uint(i)
			}
		} else {
			g.single = append(g.single, ln.single)
		}
	}
	if len(preds) == MaxLanes {
		g.laneMask = ^uint64(0)
	} else {
		g.laneMask = uint64(1)<<uint(len(preds)) - 1
	}
	return g, true
}

// admit fixes the group's shape on the first lane and rejects
// mismatched shapes after.
func (g *Group64) admit(kind group64Kind, lane int) bool {
	if lane == 0 {
		g.kind = kind
		return true
	}
	return g.kind == kind
}

// Lanes returns the number of lanes in the group.
func (g *Group64) Lanes() int {
	if g.kind == group64Skew {
		return len(g.skew)
	}
	return len(g.single)
}

// StepBatch64 steps every lane through steps and adds each lane's
// mispredict count into mis[lane]. mis must have at least Lanes()
// entries. It performs no allocation.
func (g *Group64) StepBatch64(steps []Step, mis []int) {
	for len(steps) > 0 {
		chunk := steps
		if len(chunk) > stepChunk64 {
			chunk = chunk[:stepChunk64]
		}
		if g.kind == group64Skew {
			g.stepSkew(chunk, mis)
		} else {
			g.stepSingle(chunk, mis)
		}
		steps = steps[len(chunk):]
	}
}

// drainVC unpacks the vertical ripple-carry counters into per-lane
// totals: plane p holds bit p of every lane's count.
func drainVC(vc *[16]uint64, lanes int, mis []int) {
	for j := 0; j < lanes; j++ {
		n := 0
		for p := 0; p < len(vc); p++ {
			n |= int(vc[p]>>uint(j)&1) << uint(p)
		}
		mis[j] += n
	}
}

// countVC adds one step's mispredict mask into the vertical counters:
// a ripple-carry add of 1 to every lane whose bit is set in mm.
func countVC(vc *[16]uint64, mm uint64) {
	for p := 0; mm != 0 && p < len(vc); p++ {
		t := vc[p] & mm
		vc[p] ^= mm
		mm = t
	}
}

func (g *Group64) stepSingle(steps []Step, mis []int) {
	lanes := g.single
	var vc [16]uint64
	for si := range steps {
		st := &steps[si]
		pc, hist := st.PC, st.Hist
		var hi, lo uint64
		for j := range lanes {
			ln := &lanes[j]
			i := ln.index(pc, hist)
			ln.idx = i
			s := ln.cells[i]
			hi |= uint64(s>>1&1) << uint(j)
			lo |= uint64(s&1) << uint(j)
		}
		var tm uint64
		if st.Taken {
			tm = ^uint64(0)
		}
		// Prediction is the hi plane; mispredict lanes differ from tm.
		countVC(&vc, (hi^tm)&g.laneMask)
		nhi := (hi|lo)&tm | (hi & lo &^ tm)
		nlo := (hi|^lo)&tm | (hi &^ lo &^ tm)
		for j := range lanes {
			ln := &lanes[j]
			ln.cells[ln.idx] = uint8(nhi>>uint(j)&1)<<1 | uint8(nlo>>uint(j)&1)
		}
	}
	drainVC(&vc, len(lanes), mis)
}

func (g *Group64) stepSkew(steps []Step, mis []int) {
	lanes := g.skew
	var vc [16]uint64
	for si := range steps {
		st := &steps[si]
		pc, hist := st.PC, st.Hist
		var h0, l0, h1, l1, h2, l2 uint64
		for j := range lanes {
			ln := &lanes[j]
			v := pc<<ln.kp | hist&ln.vHistMask
			v1 := v & ln.bankMask
			v2 := v >> ln.n & ln.bankMask
			pk := ln.pa[v1] ^ ln.pb[v2]
			i0 := pk & ln.bankMask
			if ln.enhanced {
				i0 = pc & ln.bankMask
			}
			i1 := pk >> lutField & ln.bankMask
			i2 := pk >> (2 * lutField) & ln.bankMask
			ln.i0, ln.i1, ln.i2 = i0, i1, i2
			s0, s1, s2 := ln.b0[i0], ln.b1[i1], ln.b2[i2]
			bit := uint(j)
			h0 |= uint64(s0>>1&1) << bit
			l0 |= uint64(s0&1) << bit
			h1 |= uint64(s1>>1&1) << bit
			l1 |= uint64(s1&1) << bit
			h2 |= uint64(s2>>1&1) << bit
			l2 |= uint64(s2&1) << bit
		}
		var tm uint64
		if st.Taken {
			tm = ^uint64(0)
		}
		// Per-bank predictions are the hi planes; majority across the
		// three banks, then the paper's partial-update policy as lane
		// masks: a partial lane whose majority was right updates only
		// the banks that agreed with the outcome.
		maj := h0&h1 | h1&h2 | h0&h2
		countVC(&vc, (maj^tm)&g.laneMask)
		majRight := ^(maj ^ tm)
		u0 := ^g.partialMask | majRight&^(h0^tm) | ^majRight
		u1 := ^g.partialMask | majRight&^(h1^tm) | ^majRight
		u2 := ^g.partialMask | majRight&^(h2^tm) | ^majRight
		nh0 := (h0|l0)&tm | (h0 & l0 &^ tm)
		nl0 := (h0|^l0)&tm | (h0 &^ l0 &^ tm)
		nh1 := (h1|l1)&tm | (h1 & l1 &^ tm)
		nl1 := (h1|^l1)&tm | (h1 &^ l1 &^ tm)
		nh2 := (h2|l2)&tm | (h2 & l2 &^ tm)
		nl2 := (h2|^l2)&tm | (h2 &^ l2 &^ tm)
		fh0 := nh0&u0 | h0&^u0
		fl0 := nl0&u0 | l0&^u0
		fh1 := nh1&u1 | h1&^u1
		fl1 := nl1&u1 | l1&^u1
		fh2 := nh2&u2 | h2&^u2
		fl2 := nl2&u2 | l2&^u2
		for j := range lanes {
			ln := &lanes[j]
			bit := uint(j)
			ln.b0[ln.i0] = uint8(fh0>>bit&1)<<1 | uint8(fl0>>bit&1)
			ln.b1[ln.i1] = uint8(fh1>>bit&1)<<1 | uint8(fl1>>bit&1)
			ln.b2[ln.i2] = uint8(fh2>>bit&1)<<1 | uint8(fl2>>bit&1)
		}
	}
	drainVC(&vc, len(lanes), mis)
}

// GroupKind64 classifies p for bitsliced grouping without compiling
// it: lanes of the same class (and only those) can share a Group64.
// ok is false when p cannot join any group.
func GroupKind64(p predictor.Predictor) (kind int, ok bool) {
	sp, isSp := p.(predictor.Speccer)
	if !isSp {
		return 0, false
	}
	switch sp.Spec().Family {
	case "bimodal", "gshare", "gselect":
		s, isSingle := p.(*predictor.Single)
		if !isSingle || s.Table().Bits() != 2 {
			return 0, false
		}
		return int(group64Single), true
	case "gskewed", "egskew":
		gk, isSkew := p.(*predictor.GSkewed)
		if !isSkew {
			return 0, false
		}
		tabs := gk.BankTables()
		if len(tabs) != 3 || tabs[0].Bits() != 2 || gk.BankBits() > MaxLUTBits {
			return 0, false
		}
		return int(group64Skew), true
	}
	return 0, false
}
