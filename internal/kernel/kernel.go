// Package kernel compiles predictor configurations into monomorphized,
// allocation-free step functions — the simulation equivalent of the
// EV8 design study flattening e-gskew's index logic into hardware.
//
// The generic simulation path pays, per branch, an interface dispatch
// into predictor.Predictor, virtual counter.Table get/set calls, and a
// fresh evaluation of the H/H⁻¹ bit permutations for every skewed
// bank. A compiled kernel removes all of it: skew indices come from
// precomputed split lookup tables (H and H⁻¹ are GF(2)-linear, so
// f_k(V) = lut_hi[V>>n] ^ lut_lo[V&mask] per bank — see lut.go),
// saturating counters step through 256-entry next-state/predict
// tables, and the whole predict-then-train loop for a block of
// branches runs inside one concrete method with no interface calls.
// The skewed loops are also branch-free: the majority vote, partial
// update and chooser training of a step are one load from a joint
// transition table indexed by the banks' states and the outcome
// (joint.go), and TAGE's folded-history hashes, also GF(2)-linear,
// come from per-chunk row tables (tage.go).
//
// Kernels share storage with the predictor they were compiled from:
// the counter state arrays are the predictor's own backing cells, so a
// kernel-driven run leaves the predictor in exactly the state the
// interface path would have, and Reset on the predictor resets the
// kernel too. Compile recognizes the paper's table-based organisations
// (bimodal, gshare, gselect, gskewed and e-gskew under both update
// policies), 2Bc-gskew and TAGE; anything else — the perceptron,
// tagged reference tables, shared-hysteresis banks, five-bank skews,
// skews with counters wider than MaxSkewCtrBits, hybrids — reports
// ok == false and stays on the interface path: the predictor's own
// Step where it is a predictor.Stepper, Predict and Update otherwise.
// Bit-identical behaviour of every compiled family is enforced by the
// differential harness (internal/refmodel/diff, cmd/verify), which
// drives each kernel against the executable paper specification.
package kernel

import (
	"fmt"

	"gskew/internal/indexfn"
	"gskew/internal/predictor"
)

// Step is one conditional-branch event, precomputed by the simulation
// runner: the word-aligned PC, the raw global-history value at the
// branch (the kernel masks it to its own configured length), and the
// resolved direction.
type Step struct {
	PC    uint64
	Hist  uint64
	Taken bool
}

// Kernel is a compiled predictor: a fused predict-then-train step
// function over flat arrays.
type Kernel interface {
	// Step runs one fused step and returns the prediction, exactly as
	// the predictor's Predict-then-Update pair would.
	Step(pc, hist uint64, taken bool) bool
	// StepBatch runs the fused step for every element of steps inside
	// one devirtualized loop and returns how many predictions differed
	// from the recorded outcome. It performs no allocation.
	StepBatch(steps []Step) (mispredicts int)
}

// Compile lowers p into a kernel, sharing p's counter storage.
// histBits is the history length the simulation runner drives p with
// (the runner's register width for this predictor, after any Options
// override); the kernel masks every Step.Hist to it before its own
// index computation, so raw wider-register values can be passed.
//
// ok is false when p's organisation is not one of the compiled
// families (or its geometry is out of LUT range); callers then use the
// interface path.
func Compile(p predictor.Predictor, histBits uint) (Kernel, bool) {
	if histBits > 63 {
		return nil, false
	}
	runnerMask := uint64(1)<<histBits - 1
	// Recognition is by reported Spec family: every compilable
	// organisation describes itself through the unified construction
	// surface, so a predictor that cannot state its Spec (hybrids,
	// custom index functions) stays on the interface path.
	sp, ok := p.(predictor.Speccer)
	if !ok {
		return nil, false
	}
	switch sp.Spec().Family {
	case "bimodal", "gshare", "gselect":
		if t, ok := p.(*predictor.Single); ok {
			return compileSingle(t, runnerMask)
		}
	case "gskewed", "egskew":
		if t, ok := p.(*predictor.GSkewed); ok {
			return compileSkew(t, runnerMask)
		}
	case "2bcgskew":
		if t, ok := p.(*predictor.TwoBcGSkew); ok {
			return compileTBC(t, runnerMask)
		}
	case "tage":
		if t, ok := p.(*predictor.TAGE); ok {
			return compileTAGE(t, runnerMask)
		}
	}
	return nil, false
}

// Invalidate drops any memoised read state p holds, if it holds any.
// Kernels train p's tables without going through p's methods, so a
// runner must call this after a kernel-driven run before p serves
// interface calls again.
func Invalidate(p predictor.Predictor) {
	if mi, ok := p.(predictor.MemoInvalidator); ok {
		mi.InvalidateMemo()
	}
}

// bit is b as 0/1; the compiler lowers it to a zero-extension.
func bit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// Single-table kernels

func compileSingle(s *predictor.Single, runnerMask uint64) (Kernel, bool) {
	cells := s.Table().Cells()
	bits := s.Table().Bits()
	aut := automatonFor(bits)
	switch fn := s.IndexFn().(type) {
	case *indexfn.Bimodal:
		return &bimodalKernel{
			aut: aut, cells: cells,
			idxMask: uint64(1)<<fn.Bits() - 1,
			ctrBits: bits,
		}, true
	case *indexfn.GShare:
		n, k := fn.Bits(), fn.HistoryBits()
		return &gshareKernel{
			aut: aut, cells: cells,
			idxMask:  uint64(1)<<n - 1,
			histMask: runnerMask & (uint64(1)<<k - 1),
			shift:    n - min(n, k),
			fold:     k > n,
			n:        n,
			ctrBits:  bits,
		}, true
	case *indexfn.GSelect:
		n, k := fn.Bits(), fn.HistoryBits()
		g := &gselectKernel{
			aut: aut, cells: cells,
			idxMask:  uint64(1)<<n - 1,
			histOnly: k >= n,
			ctrBits:  bits,
		}
		if !g.histOnly {
			g.aMask = uint64(1)<<(n-k) - 1
			g.hMask = runnerMask & (uint64(1)<<k - 1)
			g.shift = n - k
		} else {
			g.hMask = runnerMask
		}
		return g, true
	}
	return nil, false
}

type bimodalKernel struct {
	aut     automaton
	cells   []uint8
	idxMask uint64
	ctrBits uint
}

func (k *bimodalKernel) step1(pc, _ uint64, taken bool) bool {
	i := pc & k.idxMask
	s := k.cells[i]
	k.cells[i] = k.aut.next[uint16(s)<<1|uint16(bit(taken))]
	return k.aut.bit[s] != 0
}

func (k *bimodalKernel) Step(pc, hist uint64, taken bool) bool { return k.step1(pc, hist, taken) }

// StepBatch is step1 over a block with the table, mask and automaton
// hoisted into locals. Every index is also masked by len(cells)-1
// (equal to idxMask by construction: the table has 2^n entries), so
// the compiler drops the bounds checks, as in skewKernel.StepBatch.
func (k *bimodalKernel) StepBatch(steps []Step) int {
	cells := k.cells
	if len(cells) == 0 {
		return 0
	}
	aut := &k.aut
	m := k.idxMask & uint64(len(cells)-1)
	mis := 0
	for i := range steps {
		s := &steps[i]
		j := s.PC & m
		c := cells[j]
		cells[j] = aut.next[uint16(c)<<1|uint16(bit(s.Taken))]
		if aut.bit[c] != bit(s.Taken) {
			mis++
		}
	}
	return mis
}

type gshareKernel struct {
	aut      automaton
	cells    []uint8
	idxMask  uint64
	histMask uint64 // runner mask ∧ index-function history mask
	shift    uint   // n-k alignment shift (footnote 1) when k <= n
	fold     bool   // k > n: XOR-fold the history down to n bits
	n        uint
	ctrBits  uint
}

func (k *gshareKernel) index(pc, hist uint64) uint64 {
	h := hist & k.histMask
	if k.fold {
		out := uint64(0)
		for h != 0 {
			out ^= h & k.idxMask
			h >>= k.n
		}
		h = out
	} else {
		h <<= k.shift
	}
	return (pc ^ h) & k.idxMask
}

func (k *gshareKernel) step1(pc, hist uint64, taken bool) bool {
	i := k.index(pc, hist)
	s := k.cells[i]
	k.cells[i] = k.aut.next[uint16(s)<<1|uint16(bit(taken))]
	return k.aut.bit[s] != 0
}

func (k *gshareKernel) Step(pc, hist uint64, taken bool) bool { return k.step1(pc, hist, taken) }

// StepBatch is step1 over a block with the table, masks and automaton
// hoisted into locals and the fold decided once per block (see
// bimodalKernel.StepBatch for the bounds-check masking).
func (k *gshareKernel) StepBatch(steps []Step) int {
	cells := k.cells
	if len(cells) == 0 {
		return 0
	}
	aut := &k.aut
	m := k.idxMask & uint64(len(cells)-1)
	histMask, shift := k.histMask, k.shift
	mis := 0
	if k.fold {
		idxMask, n := k.idxMask, k.n
		for i := range steps {
			s := &steps[i]
			h, f := s.Hist&histMask, uint64(0)
			for h != 0 {
				f ^= h & idxMask
				h >>= n
			}
			j := (s.PC ^ f) & m
			c := cells[j]
			cells[j] = aut.next[uint16(c)<<1|uint16(bit(s.Taken))]
			if aut.bit[c] != bit(s.Taken) {
				mis++
			}
		}
		return mis
	}
	for i := range steps {
		s := &steps[i]
		j := (s.PC ^ (s.Hist&histMask)<<shift) & m
		c := cells[j]
		cells[j] = aut.next[uint16(c)<<1|uint16(bit(s.Taken))]
		if aut.bit[c] != bit(s.Taken) {
			mis++
		}
	}
	return mis
}

type gselectKernel struct {
	aut      automaton
	cells    []uint8
	idxMask  uint64
	aMask    uint64
	hMask    uint64
	shift    uint
	histOnly bool // k >= n: the index is history alone
	ctrBits  uint
}

func (k *gselectKernel) index(pc, hist uint64) uint64 {
	if k.histOnly {
		return hist & k.hMask & k.idxMask
	}
	return (hist&k.hMask)<<k.shift | pc&k.aMask
}

func (k *gselectKernel) step1(pc, hist uint64, taken bool) bool {
	i := k.index(pc, hist)
	s := k.cells[i]
	k.cells[i] = k.aut.next[uint16(s)<<1|uint16(bit(taken))]
	return k.aut.bit[s] != 0
}

func (k *gselectKernel) Step(pc, hist uint64, taken bool) bool { return k.step1(pc, hist, taken) }

// StepBatch is step1 over a block with the table, masks and automaton
// hoisted into locals (see bimodalKernel.StepBatch for the
// bounds-check masking). The history-only case is the general one with
// no address bits: aMask and shift are zero there.
func (k *gselectKernel) StepBatch(steps []Step) int {
	cells := k.cells
	if len(cells) == 0 {
		return 0
	}
	aut := &k.aut
	m := k.idxMask & uint64(len(cells)-1)
	aMask, hMask, shift := k.aMask, k.hMask, k.shift
	mis := 0
	for i := range steps {
		s := &steps[i]
		j := ((s.Hist&hMask)<<shift | s.PC&aMask) & m
		c := cells[j]
		cells[j] = aut.next[uint16(c)<<1|uint16(bit(s.Taken))]
		if aut.bit[c] != bit(s.Taken) {
			mis++
		}
	}
	return mis
}

// Skewed kernels

func compileSkew(g *predictor.GSkewed, runnerMask uint64) (Kernel, bool) {
	tabs := g.BankTables()
	if len(tabs) != 3 {
		// Shared-hysteresis banks (tabs == nil) or the 5-bank and wider
		// configurations, whose extra index functions are not in the
		// three-bank LUT family.
		return nil, false
	}
	n, w := g.BankBits(), tabs[0].Bits()
	if n > MaxLUTBits || w > MaxSkewCtrBits {
		return nil, false
	}
	luts := lutsFor(n)
	kp := g.HistoryBits()
	partial := g.Policy() == predictor.PartialUpdate
	k := &skewKernel{
		joint:     skewJointFor(w, partial),
		b0:        tabs[0].Cells(),
		b1:        tabs[1].Cells(),
		b2:        tabs[2].Cells(),
		pa:        luts.pa,
		pb:        luts.pb,
		bankMask:  uint64(1)<<n - 1,
		n:         n,
		kp:        kp,
		vHistMask: runnerMask & (uint64(1)<<kp - 1),
		partial:   partial,
		enhanced:  g.Enhanced(),
		ctrBits:   w,
	}
	return k, true
}

type skewKernel struct {
	// joint is the shared joint transition table for the kernel's
	// counter width and update policy (skewJointFor).
	joint *[skewJointLen]uint32
	// b0..b2 alias the predictor's own bank cells.
	b0, b1, b2 []uint8
	// pa is indexed by V1, pb by V2; pa[V1]^pb[V2] yields all three
	// bank indices in 21-bit fields (f0 | f1<<21 | f2<<42).
	pa, pb    []uint64
	bankMask  uint64
	n         uint
	kp        uint   // predictor history length: V = (pc << kp) | hist
	vHistMask uint64 // runner mask ∧ predictor history mask
	partial   bool
	enhanced  bool // bank 0 indexed by address truncation (section 6)
	ctrBits   uint
}

// Step is a one-element StepBatch, so interface sessions and the
// differential harness drive the same transcription batch runs do.
func (k *skewKernel) Step(pc, hist uint64, taken bool) bool {
	s := [1]Step{{PC: pc, Hist: hist, Taken: taken}}
	return (k.StepBatch(s[:]) == 0) == taken
}

// StepBatch predicts each step by the majority of the three banks and
// trains them under the kernel's update policy (total: every bank;
// partial: when the vote was right, only the banks that agreed with
// it). Per step it makes the two packed-LUT loads, the three bank
// loads and one load from the joint transition table (skewJointFor),
// whose entry holds every bank's next state and the miss bit; it
// stores all three banks and adds the miss bit. There is no branch:
// the host branches a data-dependent vote and partial update would
// take mispredict about as often as the simulated predictor does.
// Every slice is hoisted into a local, resliced to one length, and
// every index masked by that length, so the compiler's prove pass can
// eliminate the bounds checks in the loop body (the mask equals
// bankMask by construction: both packed LUT halves and all banks have
// exactly 2^n entries; the joint index is masked to its array's
// length).
func (k *skewKernel) StepBatch(steps []Step) int {
	pa, pb := k.pa, k.pb
	b0, b1, b2 := k.b0, k.b1, k.b2
	joint := k.joint
	// All five slices hold 2^n entries. Reslicing them to one length
	// lets a single mask, m, prove every index in range; the
	// nonempty guard keeps len-1 from underflowing.
	size := len(b0)
	if size == 0 || joint == nil || len(pa) < size || len(pb) < size || len(b1) < size || len(b2) < size {
		return 0
	}
	pa, pb, b1, b2 = pa[:size], pb[:size], b1[:size], b2[:size]
	m := k.bankMask & uint64(size-1)
	// Shift counts masked to 63 compile to bare shifts.
	kp, n, vHistMask := k.kp&63, k.n&63, k.vHistMask
	// eMask selects bank 0's index: the PC in the enhanced form, the
	// f0 field otherwise.
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
		e := joint[(uint(b0[i0])|uint(b1[i1])<<4|uint(b2[i2])<<8|uint(bit(s.Taken))<<12)&(skewJointLen-1)]
		b0[i0], b1[i1], b2[i2] = uint8(e), uint8(e>>8), uint8(e>>16)
		mis += int(e >> skewMissShift)
	}
	return mis
}

// 2Bc-gskew kernel

func compileTBC(t *predictor.TwoBcGSkew, runnerMask uint64) (Kernel, bool) {
	n := t.IndexBits()
	if n > MaxLUTBits {
		return nil, false
	}
	bim, g0, g1, meta := t.Tables()
	for _, tab := range []interface{ Bits() uint }{bim, g0, g1, meta} {
		if tab.Bits() != 2 {
			return nil, false // the joint table is built for 2-bit counters
		}
	}
	luts := lutsFor(n)
	k0, k1 := t.HistLengths()
	return &tbcKernel{
		joint:   tbcJointFor(bit(t.MetaInverted())),
		bim:     bim.Cells(),
		g0:      g0.Cells(),
		g1:      g1.Cells(),
		meta:    meta.Cells(),
		pa:      luts.pa,
		pb:      luts.pb,
		idxMask: uint64(1)<<n - 1,
		n:       n,
		k0:      k0,
		k1:      k1,
		m0:      runnerMask & (uint64(1)<<k0 - 1),
		m1:      runnerMask & (uint64(1)<<k1 - 1),
	}, true
}

type tbcKernel struct {
	// joint is the shared joint transition table for the predictor's
	// chooser flip (tbcJointFor): nonzero flip is the planted
	// chooser-inversion fault (predictor.TamperTwoBcMeta).
	joint             *[512]uint64
	bim, g0, g1, meta []uint8
	// pa/pb are the packed LUT halves the skewed kernel uses: one pair
	// of lookups on the short-history vector yields META's f0 and G0's
	// f1 fields, one on the long-history vector G1's f2 field.
	pa, pb  []uint64
	idxMask uint64
	n       uint
	k0, k1  uint   // short and long history lengths
	m0, m1  uint64 // runner-combined history masks
}

// Step is a one-element StepBatch (see skewKernel.Step).
func (k *tbcKernel) Step(pc, hist uint64, taken bool) bool {
	s := [1]Step{{PC: pc, Hist: hist, Taken: taken}}
	return (k.StepBatch(s[:]) == 0) == taken
}

// StepBatch runs 2Bc-gskew's rules (Seznec et al., ISCA 2002; see
// ev8.go and tbcJointFor) over a block: META picks between BIM and the
// majority of BIM, G0 and G1, and the direction tables and META train
// by partial update. Per step it makes two packed-LUT load pairs (one
// per history vector), the four table loads and one load from the
// joint transition table, whose entry holds all four next states and
// the miss bit; it stores all four tables and adds the miss bit. The
// loop is branch-free and hoisted like skewKernel.StepBatch: the four
// tables and both packed LUT halves (all 2^n entries) are resliced to
// one length so a single mask proves every index in range, and the
// 9-bit joint index fits its 512-entry array.
func (k *tbcKernel) StepBatch(steps []Step) int {
	bim, g0, g1, meta := k.bim, k.g0, k.g1, k.meta
	pa, pb := k.pa, k.pb
	joint := k.joint
	size := len(bim)
	if size == 0 || joint == nil || len(g0) < size || len(g1) < size || len(meta) < size || len(pa) < size || len(pb) < size {
		return 0
	}
	g0, g1, meta, pa, pb = g0[:size], g1[:size], meta[:size], pa[:size], pb[:size]
	m := k.idxMask & uint64(size-1)
	k0, k1, n, m0, m1 := k.k0&63, k.k1&63, k.n&63, k.m0, k.m1
	mis := 0
	for i := range steps {
		s := &steps[i]
		vA := s.PC<<k0 | s.Hist&m0
		vB := s.PC<<k1 | s.Hist&m1
		pkA := pa[vA&m] ^ pb[vA>>n&m]
		pkB := pa[vB&m] ^ pb[vB>>n&m]
		iBim, iMeta := s.PC&m, pkA&m
		iG0, iG1 := pkA>>lutField&m, pkB>>(2*lutField)&m
		e := joint[(uint(bim[iBim])|uint(g0[iG0])<<2|uint(g1[iG1])<<4|uint(meta[iMeta])<<6|uint(bit(s.Taken))<<8)&511]
		bim[iBim], g0[iG0], g1[iG1], meta[iMeta] = uint8(e), uint8(e>>8), uint8(e>>16), uint8(e>>24)
		mis += int(e >> tbcMissShift)
	}
	return mis
}

// Fault injection

// TamperLUT XORs delta into one LUT entry of a compiled skewed or
// 2Bc-gskew kernel: bank selects the index function (0..2), half
// selects the V1 (0) or V2 (1) table, entry the table slot. Both
// kernels store the packed form, so the fault lands in the selected
// bank's 21-bit field of the selected half's entry — observationally
// identical to flipping the same bits of a split table. The kernel's
// LUT is copied before the fault is planted, so the shared cache stays
// clean. It exists for the differential harness's fault-injection
// self-test — a verifier that cannot catch a planted LUT off-by-one
// cannot be trusted to catch a real one — and returns an error for
// kernels without LUTs.
func TamperLUT(k Kernel, bank, half int, entry uint64, delta uint32) error {
	var pa, pb *[]uint64
	switch kk := k.(type) {
	case *skewKernel:
		pa, pb = &kk.pa, &kk.pb
	case *tbcKernel:
		pa, pb = &kk.pa, &kk.pb
	default:
		return fmt.Errorf("kernel: %T has no skew LUTs to tamper with", k)
	}
	if bank < 0 || bank > 2 || half < 0 || half > 1 {
		return fmt.Errorf("kernel: no LUT at bank %d half %d", bank, half)
	}
	slot := pa
	if half == 1 {
		slot = pb
	}
	if entry >= uint64(len(*slot)) {
		return fmt.Errorf("kernel: LUT entry %d out of range [0,%d)", entry, len(*slot))
	}
	cp := append([]uint64(nil), *slot...)
	cp[entry] ^= uint64(delta) << (uint(bank) * lutField)
	*slot = cp
	return nil
}

// TamperJoint XORs delta into one field of one entry of a compiled
// skewed or 2Bc-gskew kernel's joint transition table (see joint.go
// for the index and entry layouts). Field j below the kernel's table
// count selects table j's next state (skewed: banks 0..2; 2Bc-gskew:
// BIM, G0, G1, META), and delta must fit the counter width; field j
// equal to the table count selects the miss bit, and delta must be 1.
// The kernel's joint table is copied before the fault is planted, so
// the shared cache stays clean, as in TamperLUT. It exists for the
// differential harness's fault-injection self-test and returns an
// error for kernels without a joint table.
func TamperJoint(k Kernel, entry uint64, field int, delta uint8) error {
	var (
		entries     uint64
		tables      int
		width, miss uint
	)
	switch kk := k.(type) {
	case *skewKernel:
		entries, tables, width, miss = skewJointLen, 3, kk.ctrBits, skewMissShift
	case *tbcKernel:
		entries, tables, width, miss = uint64(len(kk.joint)), 4, 2, tbcMissShift
	default:
		return fmt.Errorf("kernel: %T has no joint transition table to tamper with", k)
	}
	if entry >= entries {
		return fmt.Errorf("kernel: joint entry %d out of range [0,%d)", entry, entries)
	}
	shift := miss
	switch {
	case field >= 0 && field < tables:
		if delta == 0 || delta >= 1<<width {
			return fmt.Errorf("kernel: delta %#x does not fit a %d-bit counter", delta, width)
		}
		shift = uint(field) * 8
	case field == tables:
		if delta != 1 {
			return fmt.Errorf("kernel: the miss bit takes delta 1, got %d", delta)
		}
	default:
		return fmt.Errorf("kernel: no joint field %d (tables 0..%d, miss bit %d)", field, tables-1, tables)
	}
	switch kk := k.(type) {
	case *skewKernel:
		cp := *kk.joint
		cp[entry] ^= uint32(delta) << shift
		kk.joint = &cp
	case *tbcKernel:
		cp := *kk.joint
		cp[entry] ^= uint64(delta) << shift
		kk.joint = &cp
	}
	return nil
}
