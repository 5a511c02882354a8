package kernel

import "gskew/internal/predictor"

// 64-lane bitsliced kernels.
//
// A sweep cell commonly runs many predictors of the same family over
// one trace (ablation grids, the HTTP sweep endpoint, the verify
// matrix). The scalar kernels step those lanes one at a time; here the
// per-lane 2-bit counters are transposed into bitplanes — bit j of a
// uint64 plane is lane j's bit — so one SWAR expression steps all
// lanes' saturating-counter automata, majority votes and mispredict
// comparisons at once.
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
// construction. Bit-identity with the scalar kernels — and through
// them with the paper specification — is enforced by the
// bitsliced arm of cmd/verify.
//
// Two table layouts, chosen at compile time:
//
//   - Mixed groups (lanes of the same kind but different index
//     functions) keep each lane's own uint8 table, aliased from the
//     predictor, and gather/scatter one byte per lane per step. The
//     SWAR arithmetic amortises only the automaton and the counting,
//     which does not pay for the gather: mixed groups run slower than
//     the lanes' scalar kernels, so the simulator never forms them.
//     The layout stays for the verify arm and the benchmark's probe.
//   - Uniform groups (every lane computes the same index, i.e. equal
//     LaneKeys — the shape RunMany replicated sweeps and the verify
//     arm produce) store the
//     tables TRANSPOSED: entry e of a bank is a pair of plane words
//     (hi[e], lo[e]) holding bit j for lane j. A step is then two
//     word loads and two word stores per bank regardless of lane
//     count, which is where the >8x per-lane win over the scalar
//     kernels comes from. The planes are owned storage: Reload
//     re-transposes from the lane predictors (after an external
//     Reset), Writeback publishes the planes into them (before any
//     external read). Both are no-ops for mixed groups, so callers
//     may invoke them unconditionally.

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
	// Uniform fast path: when every lane shares one index function the
	// counters live here transposed (hiP[bank][entry] bit j = lane j's
	// prediction bit), and the lanes' own tables are stale until
	// Writeback. Single-table groups use bank 0 only.
	uniform  bool
	hiP, loP [3][]uint64
}

// stepChunk64 bounds one inner pass so the 16-plane vertical counters
// (per-lane counts < 2^16) cannot overflow. The sim runner's blocks
// are 4096 steps, well inside it.
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

// LaneKey is the index function of one bitsliced lane. Lanes with equal
// keys read and write the same entry of their own tables on every
// step, so they compile into one uniform (transposed) Group64; counter
// state and the skewed update policy may still differ per lane.
type LaneKey struct {
	kind                            group64Kind
	lane                            uint8
	entries                         int
	idxMask, histMask, hMask, aMask uint64
	vHistMask                       uint64
	shift, n, kp                    uint
	fold, histOnly, enhanced        bool
}

func (ln *singleLane) key() LaneKey {
	return LaneKey{
		kind: group64Single, lane: ln.kind, entries: len(ln.cells),
		idxMask: ln.idxMask, histMask: ln.histMask, hMask: ln.hMask, aMask: ln.aMask,
		shift: ln.shift, n: ln.n, fold: ln.fold, histOnly: ln.histOnly,
	}
}

func (ln *skewLane) key() LaneKey {
	return LaneKey{
		kind: group64Skew, entries: len(ln.b0),
		idxMask: ln.bankMask, vHistMask: ln.vHistMask,
		n: ln.n, kp: ln.kp, enhanced: ln.enhanced,
	}
}

// LaneKey64 returns k's bitsliced lane key. ok is false when k cannot
// join any Group64. Kernels with equal keys form a uniform group.
func LaneKey64(k Kernel) (LaneKey, bool) {
	ln, ok := lower64(k)
	if !ok {
		return LaneKey{}, false
	}
	if ln.kind == group64Skew {
		return ln.skew.key(), true
	}
	return ln.single.key(), true
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
	g.detectUniform()
	if g.uniform {
		banks, entries := 1, 0
		if g.kind == group64Skew {
			banks, entries = 3, len(g.skew[0].b0)
		} else {
			entries = len(g.single[0].cells)
		}
		for b := 0; b < banks; b++ {
			g.hiP[b] = make([]uint64, entries)
			g.loP[b] = make([]uint64, entries)
		}
		g.Reload()
	}
	return g, true
}

// detectUniform marks the group uniform when every lane has the same
// LaneKey, so every lane reads and writes the same entry of its own
// table each step.
func (g *Group64) detectUniform() {
	if g.kind == group64Skew {
		for i := range g.skew {
			if g.skew[i].key() != g.skew[0].key() {
				return
			}
		}
	} else {
		for i := range g.single {
			if g.single[i].key() != g.single[0].key() {
				return
			}
		}
	}
	g.uniform = true
}

// Uniform reports whether the group runs on the transposed-plane fast
// path (and therefore needs Reload/Writeback around external state
// access).
func (g *Group64) Uniform() bool { return g.uniform }

// laneBank returns lane j's bank b table in a skewed group.
func (g *Group64) laneBank(j, b int) []uint8 {
	switch b {
	case 0:
		return g.skew[j].b0
	case 1:
		return g.skew[j].b1
	default:
		return g.skew[j].b2
	}
}

// Reload re-transposes the lane predictors' tables into the plane
// arrays. Call it after mutating lane state externally (e.g. a flush
// Reset) on a uniform group; a no-op otherwise.
func (g *Group64) Reload() {
	if !g.uniform {
		return
	}
	banks := 1
	if g.kind == group64Skew {
		banks = 3
	}
	for b := 0; b < banks; b++ {
		hp, lp := g.hiP[b], g.loP[b]
		for e := range hp {
			var hi, lo uint64
			if g.kind == group64Skew {
				for j := range g.skew {
					s := g.laneBank(j, b)[e]
					hi |= uint64(s>>1&1) << uint(j)
					lo |= uint64(s&1) << uint(j)
				}
			} else {
				for j := range g.single {
					s := g.single[j].cells[e]
					hi |= uint64(s>>1&1) << uint(j)
					lo |= uint64(s&1) << uint(j)
				}
			}
			hp[e], lp[e] = hi, lo
		}
	}
}

// Writeback publishes the plane arrays into the lane predictors' own
// tables. Call it before reading lane state externally (end of run,
// final Predict probes) on a uniform group; a no-op otherwise.
func (g *Group64) Writeback() {
	if !g.uniform {
		return
	}
	banks := 1
	if g.kind == group64Skew {
		banks = 3
	}
	for b := 0; b < banks; b++ {
		hp, lp := g.hiP[b], g.loP[b]
		for e := range hp {
			hi, lo := hp[e], lp[e]
			if g.kind == group64Skew {
				for j := range g.skew {
					g.laneBank(j, b)[e] = uint8(hi>>uint(j)&1)<<1 | uint8(lo>>uint(j)&1)
				}
			} else {
				for j := range g.single {
					g.single[j].cells[e] = uint8(hi>>uint(j)&1)<<1 | uint8(lo>>uint(j)&1)
				}
			}
		}
	}
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
		switch {
		case g.uniform && g.kind == group64Skew:
			g.stepSkewU(chunk, mis)
		case g.uniform:
			g.stepSingleU(chunk, mis)
		case g.kind == group64Skew:
			g.stepSkew(chunk, mis)
		default:
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

// stepSingleU is stepSingle on the transposed layout: all lanes share
// one index, so a step is one plane-pair load, the SWAR automaton,
// and one plane-pair store — O(1) in the lane count. Stores are
// masked to laneMask so unused plane bits stay zero.
func (g *Group64) stepSingleU(steps []Step, mis []int) {
	ln := &g.single[0]
	hp, lp := g.hiP[0], g.loP[0]
	lm := g.laneMask
	var vc [16]uint64
	for si := range steps {
		st := &steps[si]
		i := ln.index(st.PC, st.Hist)
		hi, lo := hp[i], lp[i]
		var tm uint64
		if st.Taken {
			tm = ^uint64(0)
		}
		countVC(&vc, (hi^tm)&lm)
		hp[i] = ((hi|lo)&tm | (hi & lo &^ tm)) & lm
		lp[i] = ((hi|^lo)&tm | (hi &^ lo &^ tm)) & lm
	}
	drainVC(&vc, len(g.single), mis)
}

// stepSkewU is stepSkew on the transposed layout: shared three-bank
// indices, three plane-pair load/store pairs per step.
func (g *Group64) stepSkewU(steps []Step, mis []int) {
	ln := &g.skew[0]
	h0P, l0P := g.hiP[0], g.loP[0]
	h1P, l1P := g.hiP[1], g.loP[1]
	h2P, l2P := g.hiP[2], g.loP[2]
	lm := g.laneMask
	var vc [16]uint64
	for si := range steps {
		st := &steps[si]
		pc, hist := st.PC, st.Hist
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
		h0, l0 := h0P[i0], l0P[i0]
		h1, l1 := h1P[i1], l1P[i1]
		h2, l2 := h2P[i2], l2P[i2]
		var tm uint64
		if st.Taken {
			tm = ^uint64(0)
		}
		maj := h0&h1 | h1&h2 | h0&h2
		countVC(&vc, (maj^tm)&lm)
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
		h0P[i0] = (nh0&u0 | h0&^u0) & lm
		l0P[i0] = (nl0&u0 | l0&^u0) & lm
		h1P[i1] = (nh1&u1 | h1&^u1) & lm
		l1P[i1] = (nl1&u1 | l1&^u1) & lm
		h2P[i2] = (nh2&u2 | h2&^u2) & lm
		l2P[i2] = (nl2&u2 | l2&^u2) & lm
	}
	drainVC(&vc, len(g.skew), mis)
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
