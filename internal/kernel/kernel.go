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
//
// Kernels share storage with the predictor they were compiled from:
// the counter state arrays are the predictor's own backing cells, so a
// kernel-driven run leaves the predictor in exactly the state the
// interface path would have, and Reset on the predictor resets the
// kernel too. Compile recognizes the paper's table-based organisations
// (bimodal, gshare, gselect, gskewed and e-gskew under both update
// policies, and 2Bc-gskew); anything else — tagged reference tables,
// shared-hysteresis banks, five-bank skews, hybrids — reports ok ==
// false and stays on the generic path. Bit-identical behaviour of
// every compiled family is enforced by the differential harness
// (internal/refmodel/diff, cmd/verify), which drives each kernel
// against the executable paper specification.
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
// generic interface path.
func Compile(p predictor.Predictor, histBits uint) (Kernel, bool) {
	if histBits > 63 {
		return nil, false
	}
	runnerMask := uint64(1)<<histBits - 1
	// Recognition is by reported Spec family: every compilable
	// organisation describes itself through the unified construction
	// surface, so a predictor that cannot state its Spec (hybrids,
	// custom index functions) stays on the generic path.
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

func takenBit(taken bool) uint16 {
	if taken {
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

func (k *bimodalKernel) index(pc, _ uint64) uint64 { return pc & k.idxMask }

func (k *bimodalKernel) step1(pc, _ uint64, taken bool) bool {
	i := pc & k.idxMask
	s := k.cells[i]
	k.cells[i] = k.aut.next[uint16(s)<<1|takenBit(taken)]
	return k.aut.pred[s]
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
		cells[j] = aut.next[uint16(c)<<1|takenBit(s.Taken)]
		if aut.pred[c] != s.Taken {
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
	k.cells[i] = k.aut.next[uint16(s)<<1|takenBit(taken)]
	return k.aut.pred[s]
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
			cells[j] = aut.next[uint16(c)<<1|takenBit(s.Taken)]
			if aut.pred[c] != s.Taken {
				mis++
			}
		}
		return mis
	}
	for i := range steps {
		s := &steps[i]
		j := (s.PC ^ (s.Hist&histMask)<<shift) & m
		c := cells[j]
		cells[j] = aut.next[uint16(c)<<1|takenBit(s.Taken)]
		if aut.pred[c] != s.Taken {
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
	k.cells[i] = k.aut.next[uint16(s)<<1|takenBit(taken)]
	return k.aut.pred[s]
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
		cells[j] = aut.next[uint16(c)<<1|takenBit(s.Taken)]
		if aut.pred[c] != s.Taken {
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
	n := g.BankBits()
	if n > MaxLUTBits {
		return nil, false
	}
	luts := lutsFor(n)
	kp := g.HistoryBits()
	k := &skewKernel{
		aut: automatonFor(tabs[0].Bits()),
		b0:  tabs[0].Cells(),
		b1:  tabs[1].Cells(),
		b2:  tabs[2].Cells(),
		pa:  luts.pa, pb: luts.pb,
		bankMask:  uint64(1)<<n - 1,
		n:         n,
		kp:        kp,
		vHistMask: runnerMask & (uint64(1)<<kp - 1),
		partial:   g.Policy() == predictor.PartialUpdate,
		enhanced:  g.Enhanced(),
		ctrBits:   tabs[0].Bits(),
	}
	return k, true
}

type skewKernel struct {
	aut automaton
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

// indices returns the three bank indices for one reference — a pure
// function of (pc, hist), shared by the step path, the touch pass and
// the bitsliced lanes.
func (k *skewKernel) indices(pc, hist uint64) (i0, i1, i2 uint64) {
	v := pc<<k.kp | hist&k.vHistMask
	v1 := v & k.bankMask
	v2 := v >> k.n & k.bankMask
	pk := k.pa[v1] ^ k.pb[v2]
	i0 = pk & k.bankMask
	if k.enhanced {
		i0 = pc & k.bankMask
	}
	i1 = pk >> lutField & k.bankMask
	i2 = pk >> (2 * lutField) & k.bankMask
	return i0, i1, i2
}

func (k *skewKernel) step1(pc, hist uint64, taken bool) bool {
	i0, i1, i2 := k.indices(pc, hist)
	s0, s1, s2 := k.b0[i0], k.b1[i1], k.b2[i2]
	p0, p1, p2 := k.aut.pred[s0], k.aut.pred[s1], k.aut.pred[s2]
	maj := p0 && (p1 || p2) || p1 && p2
	tb := takenBit(taken)
	if k.partial && maj == taken {
		// Partial update: the overall prediction was good, so banks
		// that dissented keep serving their own substreams.
		if p0 == taken {
			k.b0[i0] = k.aut.next[uint16(s0)<<1|tb]
		}
		if p1 == taken {
			k.b1[i1] = k.aut.next[uint16(s1)<<1|tb]
		}
		if p2 == taken {
			k.b2[i2] = k.aut.next[uint16(s2)<<1|tb]
		}
	} else {
		k.b0[i0] = k.aut.next[uint16(s0)<<1|tb]
		k.b1[i1] = k.aut.next[uint16(s1)<<1|tb]
		k.b2[i2] = k.aut.next[uint16(s2)<<1|tb]
	}
	return maj
}

func (k *skewKernel) Step(pc, hist uint64, taken bool) bool { return k.step1(pc, hist, taken) }

// StepBatch is step1 unrolled over a block with every slice hoisted
// into a local and every index masked by that slice's own length, so
// the compiler's prove pass can eliminate the bounds checks in the
// loop body (each mask equals bankMask by construction: both packed
// LUT halves and all banks have exactly 2^n entries).
func (k *skewKernel) StepBatch(steps []Step) int {
	pa, pb := k.pa, k.pb
	b0, b1, b2 := k.b0, k.b1, k.b2
	// Nonempty-slice guard: without it the len-1 masks below could
	// underflow, and the prover would have to keep every bounds check.
	if len(pa) == 0 || len(pb) == 0 || len(b0) == 0 || len(b1) == 0 || len(b2) == 0 {
		return 0
	}
	aut := &k.aut
	kp, n, vHistMask, bankMask := k.kp, k.n, k.vHistMask, k.bankMask
	enhanced, partial := k.enhanced, k.partial
	mis := 0
	for i := range steps {
		s := &steps[i]
		v := s.PC<<kp | s.Hist&vHistMask
		v1 := v & bankMask
		v2 := v >> n & bankMask
		pk := pa[v1&uint64(len(pa)-1)] ^ pb[v2&uint64(len(pb)-1)]
		i0 := pk & bankMask
		if enhanced {
			i0 = s.PC & bankMask
		}
		i0 &= uint64(len(b0) - 1)
		i1 := pk >> lutField & bankMask & uint64(len(b1)-1)
		i2 := pk >> (2 * lutField) & bankMask & uint64(len(b2)-1)
		s0, s1, s2 := b0[i0], b1[i1], b2[i2]
		p0, p1, p2 := aut.pred[s0], aut.pred[s1], aut.pred[s2]
		taken := s.Taken
		maj := p0 && (p1 || p2) || p1 && p2
		tb := takenBit(taken)
		if partial && maj == taken {
			if p0 == taken {
				b0[i0] = aut.next[uint16(s0)<<1|tb]
			}
			if p1 == taken {
				b1[i1] = aut.next[uint16(s1)<<1|tb]
			}
			if p2 == taken {
				b2[i2] = aut.next[uint16(s2)<<1|tb]
			}
		} else {
			b0[i0] = aut.next[uint16(s0)<<1|tb]
			b1[i1] = aut.next[uint16(s1)<<1|tb]
			b2[i2] = aut.next[uint16(s2)<<1|tb]
		}
		if maj != taken {
			mis++
		}
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
	luts := lutsFor(n)
	k0, k1 := t.HistLengths()
	return &tbcKernel{
		aut:  automatonFor(bim.Bits()),
		bim:  bim.Cells(),
		g0:   g0.Cells(),
		g1:   g1.Cells(),
		meta: meta.Cells(),
		l0a:  luts.a0, l0b: luts.b0,
		l1a: luts.a1, l1b: luts.b1,
		l2a: luts.a2, l2b: luts.b2,
		idxMask: uint64(1)<<n - 1,
		n:       n,
		k0:      k0,
		k1:      k1,
		m0:      runnerMask & (uint64(1)<<k0 - 1),
		m1:      runnerMask & (uint64(1)<<k1 - 1),
	}, true
}

type tbcKernel struct {
	aut               automaton
	bim, g0, g1, meta []uint8
	l0a, l0b          []uint32
	l1a, l1b          []uint32
	l2a, l2b          []uint32
	idxMask           uint64
	n                 uint
	k0, k1            uint   // short and long history lengths
	m0, m1            uint64 // runner-combined history masks
}

// indices returns the four table indices for one reference. G0 and
// META index the short-history vector through f1 and f0; G1 indexes
// the long-history vector through f2 (see ev8.go).
func (k *tbcKernel) indices(pc, hist uint64) (iBim, iG0, iG1, iMeta uint64) {
	vA := pc<<k.k0 | hist&k.m0
	vB := pc<<k.k1 | hist&k.m1
	a1, a2 := vA&k.idxMask, vA>>k.n&k.idxMask
	c1, c2 := vB&k.idxMask, vB>>k.n&k.idxMask
	iBim = pc & k.idxMask
	iG0 = uint64(k.l1a[a1] ^ k.l1b[a2])
	iG1 = uint64(k.l2a[c1] ^ k.l2b[c2])
	iMeta = uint64(k.l0a[a1] ^ k.l0b[a2])
	return iBim, iG0, iG1, iMeta
}

func (k *tbcKernel) step1(pc, hist uint64, taken bool) bool {
	iBim, iG0, iG1, iMeta := k.indices(pc, hist)
	sB, s0, s1, sM := k.bim[iBim], k.g0[iG0], k.g1[iG1], k.meta[iMeta]
	pb, p0, p1 := k.aut.pred[sB], k.aut.pred[s0], k.aut.pred[s1]
	maj := pb && (p0 || p1) || p0 && p1
	overall := pb
	if useMaj := k.aut.pred[sM]; useMaj {
		overall = maj
		if overall == taken {
			// Majority in use and right: strengthen only the agreeing
			// direction tables.
			tb := takenBit(taken)
			if pb == taken {
				k.bim[iBim] = k.aut.next[uint16(sB)<<1|tb]
			}
			if p0 == taken {
				k.g0[iG0] = k.aut.next[uint16(s0)<<1|tb]
			}
			if p1 == taken {
				k.g1[iG1] = k.aut.next[uint16(s1)<<1|tb]
			}
		} else {
			tb := takenBit(taken)
			k.bim[iBim] = k.aut.next[uint16(sB)<<1|tb]
			k.g0[iG0] = k.aut.next[uint16(s0)<<1|tb]
			k.g1[iG1] = k.aut.next[uint16(s1)<<1|tb]
		}
	} else {
		tb := takenBit(taken)
		if overall == taken {
			// Bimodal in use and right: train it alone.
			k.bim[iBim] = k.aut.next[uint16(sB)<<1|tb]
		} else {
			k.bim[iBim] = k.aut.next[uint16(sB)<<1|tb]
			k.g0[iG0] = k.aut.next[uint16(s0)<<1|tb]
			k.g1[iG1] = k.aut.next[uint16(s1)<<1|tb]
		}
	}
	if (maj == taken) != (pb == taken) {
		k.meta[iMeta] = k.aut.next[uint16(sM)<<1|takenBit(maj == taken)]
	}
	return overall
}

func (k *tbcKernel) Step(pc, hist uint64, taken bool) bool { return k.step1(pc, hist, taken) }

func (k *tbcKernel) StepBatch(steps []Step) int {
	mis := 0
	for i := range steps {
		s := &steps[i]
		if k.step1(s.PC, s.Hist, s.Taken) != s.Taken {
			mis++
		}
	}
	return mis
}

// Fault injection

// TamperLUT XORs delta into one split-LUT entry of a compiled skewed
// kernel: bank selects the index function (0..2), half selects the V1
// (0) or V2 (1) table, entry the table slot. The kernel's LUT is
// copied before the fault is planted, so the shared cache stays clean.
// It exists for the differential harness's fault-injection self-test —
// a verifier that cannot catch a planted LUT off-by-one cannot be
// trusted to catch a real one — and returns an error for kernels
// without LUTs.
func TamperLUT(k Kernel, bank, half int, entry uint64, delta uint32) error {
	switch sk := k.(type) {
	case *skewKernel:
		// The three-bank kernel stores the packed form; the fault
		// lands in the selected bank's 21-bit field of the selected
		// half's entry — observationally identical to flipping the
		// same bits of a split table.
		if bank < 0 || bank > 2 || half < 0 || half > 1 {
			return fmt.Errorf("kernel: no LUT at bank %d half %d", bank, half)
		}
		slot := &sk.pa
		if half == 1 {
			slot = &sk.pb
		}
		if entry >= uint64(len(*slot)) {
			return fmt.Errorf("kernel: LUT entry %d out of range [0,%d)", entry, len(*slot))
		}
		cp := append([]uint64(nil), *slot...)
		cp[entry] ^= uint64(delta) << (uint(bank) * lutField)
		*slot = cp
		return nil
	case *tbcKernel:
		slot := lutSlot(&sk.l0a, &sk.l0b, &sk.l1a, &sk.l1b, &sk.l2a, &sk.l2b, bank, half)
		if slot == nil {
			return fmt.Errorf("kernel: no LUT at bank %d half %d", bank, half)
		}
		if entry >= uint64(len(*slot)) {
			return fmt.Errorf("kernel: LUT entry %d out of range [0,%d)", entry, len(*slot))
		}
		cp := append([]uint32(nil), *slot...)
		cp[entry] ^= delta
		*slot = cp
		return nil
	default:
		return fmt.Errorf("kernel: %T has no skew LUTs to tamper with", k)
	}
}

func lutSlot(a0, b0, a1, b1, a2, b2 *[]uint32, bank, half int) *[]uint32 {
	switch {
	case bank == 0 && half == 0:
		return a0
	case bank == 0 && half == 1:
		return b0
	case bank == 1 && half == 0:
		return a1
	case bank == 1 && half == 1:
		return b1
	case bank == 2 && half == 0:
		return a2
	case bank == 2 && half == 1:
		return b2
	}
	return nil
}
