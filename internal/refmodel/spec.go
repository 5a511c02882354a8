package refmodel

import "fmt"

// Spec is an executable specification of a predictor organisation:
// the same observable contract as predictor.Predictor, minus the
// performance-oriented extensions. Predict must not change state.
type Spec interface {
	Predict(addr, hist uint64) bool
	Update(addr, hist uint64, taken bool)
	Name() string
	HistoryBits() uint
}

// SpecSingle is the specification of a one-bank tag-less predictor
// table: a map from table index to counter automaton, with the index
// function chosen by kind. Entries absent from the map are in the
// initial (weakly-taken) state, which is exactly how an array table
// initialised to weakly-taken behaves.
type SpecSingle struct {
	kind    string // "bimodal", "gshare" or "gselect"
	n, k    uint
	ctrBits uint
	cells   map[uint64]SpecCounter
}

// NewSpecSingle returns the spec of a 2^n-entry single-table
// predictor of the given kind with k history bits.
func NewSpecSingle(kind string, n, k, ctrBits uint) *SpecSingle {
	switch kind {
	case "bimodal", "gshare", "gselect":
	default:
		panic(fmt.Sprintf("refmodel: unknown single-table kind %q", kind))
	}
	if kind == "bimodal" {
		k = 0
	}
	return &SpecSingle{
		kind: kind, n: n, k: k, ctrBits: ctrBits,
		cells: make(map[uint64]SpecCounter),
	}
}

func (s *SpecSingle) index(addr, hist uint64) uint64 {
	switch s.kind {
	case "bimodal":
		return BimodalIndex(addr, s.n)
	case "gshare":
		return GShareIndex(addr, hist, s.n, s.k)
	default:
		return GSelectIndex(addr, hist, s.n, s.k)
	}
}

func (s *SpecSingle) cell(i uint64) SpecCounter {
	if c, ok := s.cells[i]; ok {
		return c
	}
	return NewSpecCounter(s.ctrBits)
}

// Predict implements Spec.
func (s *SpecSingle) Predict(addr, hist uint64) bool {
	return s.cell(s.index(addr, hist)).Predict()
}

// Update implements Spec.
func (s *SpecSingle) Update(addr, hist uint64, taken bool) {
	i := s.index(addr, hist)
	s.cells[i] = s.cell(i).Update(taken)
}

// Name implements Spec.
func (s *SpecSingle) Name() string { return "spec-" + s.kind }

// HistoryBits implements Spec.
func (s *SpecSingle) HistoryBits() uint { return s.k }

// SkewShape is the geometry of a skewed predictor: Banks banks of 2^N
// entries, K history bits, Ctr-bit counters, the update policy, the
// enhanced bank 0 (section 6) and the shared-hysteresis encoding
// (section 7).
type SkewShape struct {
	N, K, Ctr uint
	// Banks is the bank count, odd and >= 3; 0 means 3.
	Banks int
	// SharedHyst, when nonzero, selects the distributed encoding: one
	// prediction bit per entry and one hysteresis bit per group of
	// 2^SharedHyst entries. It requires Ctr == 2.
	SharedHyst        uint
	Partial, Enhanced bool
}

// SpecGSkewed is the specification of the skewed predictor (sections
// 4.3-4.5), of its enhanced variant (section 6) and of its
// distributed-encoding variant (section 7): per bank a map of counter
// automata indexed by that bank's skewing function of the information
// vector (the enhanced variant indexes bank 0 by address truncation
// instead), a majority vote across banks, and either the total or the
// partial update rule. Under the distributed encoding each bank keeps
// two maps instead of one: prediction bits keyed by entry index and
// hysteresis bits keyed by group (entry index >> SharedHyst).
type SpecGSkewed struct {
	shape SkewShape
	banks []map[uint64]SpecCounter // private counters
	preds []map[uint64]bool        // distributed encoding: per-entry prediction bit
	hysts []map[uint64]bool        // distributed encoding: per-group hysteresis bit (true = strong)
}

// NewSpecGSkewed returns the spec of a 3x2^n-entry skewed predictor
// with k history bits and private ctrBits-bit counters. partial
// selects the partial update rule; enhanced selects the section-6
// variant.
func NewSpecGSkewed(n, k, ctrBits uint, partial, enhanced bool) *SpecGSkewed {
	return NewSpecSkew(SkewShape{N: n, K: k, Ctr: ctrBits, Partial: partial, Enhanced: enhanced})
}

// NewSpecSkew returns the spec of the skewed predictor of the given
// shape.
func NewSpecSkew(sh SkewShape) *SpecGSkewed {
	checkWidth(sh.N)
	if sh.Banks == 0 {
		sh.Banks = 3
	}
	if sh.Banks < 3 || sh.Banks%2 == 0 {
		panic(fmt.Sprintf("refmodel: bank count %d must be odd and >= 3", sh.Banks))
	}
	if sh.Enhanced && sh.Banks != 3 {
		panic("refmodel: the enhanced skewed predictor has three banks")
	}
	if sh.SharedHyst > 0 && sh.Ctr != 2 {
		panic("refmodel: the distributed encoding splits a 2-bit counter")
	}
	g := &SpecGSkewed{shape: sh}
	for b := 0; b < sh.Banks; b++ {
		if sh.SharedHyst > 0 {
			g.preds = append(g.preds, make(map[uint64]bool))
			g.hysts = append(g.hysts, make(map[uint64]bool))
		} else {
			g.banks = append(g.banks, make(map[uint64]SpecCounter))
		}
	}
	return g
}

// rotateLeft rotates an n-bit string left by r positions: input bit i
// lands at output bit (i + r) mod n.
func rotateLeft(y uint64, r, n uint) uint64 {
	in := ToBits(y, n)
	out := make([]bool, n)
	for i := uint(0); i < n; i++ {
		out[(i+r)%n] = in[i]
	}
	return FromBits(out)
}

// SkewIndex is bank k's skewing function. Banks 0-2 use f0, f1, f2.
// A wider skewed predictor (the paper's 5-bank configuration) needs
// more functions; bank k >= 3 rotates V1 left by (k-2) mod n, applies
// f_(k mod 3) to the rotated vector, then applies H floor(k/3) times
// to the result, so no two banks share a function.
func SkewIndex(k int, v uint64, n uint) uint64 {
	switch k {
	case 0:
		return F0(v, n)
	case 1:
		return F1(v, n)
	case 2:
		return F2(v, n)
	}
	_, v2, v1 := SplitV(v, n)
	rotated := v2<<n | rotateLeft(v1, uint(k-2)%n, n)
	out := SkewIndex(k%3, rotated, n)
	for i := 0; i < k/3; i++ {
		out = H(out, n)
	}
	return out
}

// indices returns every bank's index for a reference.
func (g *SpecGSkewed) indices(addr, hist uint64) []uint64 {
	sh := g.shape
	v := Vector(addr, hist, sh.K)
	idx := make([]uint64, sh.Banks)
	for b := range idx {
		idx[b] = SkewIndex(b, v, sh.N)
	}
	if sh.Enhanced {
		// Section 6: bank 0 sees the branch address alone, so its
		// entries are shared by all histories of the same branch.
		idx[0] = BimodalIndex(addr, sh.N)
	}
	return idx
}

// The distributed encoding (section 7, as the Alpha EV8 built it)
// stores a 2-bit counter as two bits: the prediction bit is the
// counter's direction (upper half: taken) and the hysteresis bit its
// strength (the saturated states 0 and 3 are strong, 1 and 2 weak).
// An entry behaves as the 2-bit automaton over the state its own
// prediction bit and its group's hysteresis bit encode; training
// writes the new state back into both bits, so entries of one group
// also train each other's hysteresis.

// encodedState returns the 2-bit counter a (prediction, hysteresis)
// pair encodes.
func encodedState(pred, strong bool) SpecCounter {
	c := NewSpecCounter(2)
	switch {
	case pred && strong:
		c.State = 3
	case pred:
		c.State = 2
	case strong:
		c.State = 0
	default:
		c.State = 1
	}
	return c
}

// cell returns bank b's automaton at entry i. Absent entries hold the
// initial state: a fresh weakly-taken counter, or (encoded) prediction
// taken with a weak group hysteresis.
func (g *SpecGSkewed) cell(b int, i uint64) SpecCounter {
	if g.shape.SharedHyst > 0 {
		pred, ok := g.preds[b][i]
		if !ok {
			pred = true
		}
		return encodedState(pred, g.hysts[b][i>>g.shape.SharedHyst])
	}
	if c, ok := g.banks[b][i]; ok {
		return c
	}
	return NewSpecCounter(g.shape.Ctr)
}

// store writes bank b's automaton at entry i back.
func (g *SpecGSkewed) store(b int, i uint64, c SpecCounter) {
	if g.shape.SharedHyst > 0 {
		g.preds[b][i] = c.Predict()
		g.hysts[b][i>>g.shape.SharedHyst] = c.State == 0 || c.State == c.Max
		return
	}
	g.banks[b][i] = c
}

// votes returns the per-bank predictions and the majority direction.
func (g *SpecGSkewed) votes(idx []uint64) (per []bool, overall bool) {
	per = make([]bool, len(idx))
	ayes := 0
	for b := range idx {
		per[b] = g.cell(b, idx[b]).Predict()
		if per[b] {
			ayes++
		}
	}
	return per, 2*ayes > len(idx)
}

// Predict implements Spec: the majority vote of the banks.
func (g *SpecGSkewed) Predict(addr, hist uint64) bool {
	_, overall := g.votes(g.indices(addr, hist))
	return overall
}

// Update implements Spec. Under total update every bank trains on
// every outcome. Under partial update (section 4.4): when the overall
// prediction was correct, only the banks that agreed with it are
// strengthened — a dissenting bank is presumed to hold the state of a
// different substream and is left alone; when the overall prediction
// was wrong, all banks train.
func (g *SpecGSkewed) Update(addr, hist uint64, taken bool) {
	idx := g.indices(addr, hist)
	per, overall := g.votes(idx)
	for b := range idx {
		if g.shape.Partial && overall == taken && per[b] != taken {
			continue
		}
		g.store(b, idx[b], g.cell(b, idx[b]).Update(taken))
	}
}

// Name implements Spec.
func (g *SpecGSkewed) Name() string {
	if g.shape.Enhanced {
		return "spec-egskew"
	}
	return "spec-gskewed"
}

// HistoryBits implements Spec.
func (g *SpecGSkewed) HistoryBits() uint { return g.shape.K }

// Policy returns "partial" or "total".
func (g *SpecGSkewed) Policy() string {
	if g.shape.Partial {
		return "partial"
	}
	return "total"
}
