package predictor

import (
	"fmt"

	"gskew/internal/counter"
	"gskew/internal/indexfn"
	"gskew/internal/skewfn"
)

// TwoBcGSkew is the 2Bc-gskew hybrid — the direct industrial
// descendant of this paper's predictor, designed for the Alpha EV8
// (Seznec, Felix, Krishnan, Sazeides, "Design Tradeoffs for the Alpha
// EV8 Conditional Branch Predictor", ISCA 2002). Four tag-less tables:
//
//   - BIM:  a bimodal (address-indexed) table;
//   - G0, G1: two history-indexed banks with skewed index functions
//     (G1 uses a longer history than G0);
//   - META: an address+history-indexed chooser.
//
// The e-gskew majority vote over {BIM, G0, G1} handles correlated
// branches; META selects between that vote and BIM alone, so branches
// that history only hurts fall back to the bimodal table. Partial
// update keeps dissenting tables serving their own substreams.
//
// This implementation follows the published update rules at the
// granularity this repository models (single predictions, no fetch
// blocks or banking constraints).
type TwoBcGSkew struct {
	bim, g0, g1, meta *counter.Table
	skew              *skewfn.Skewer
	mask              uint64
	histG0            uint
	histG1            uint

	// Memoised read state across the Predict/Update pair the runner
	// issues per branch; invalidated whenever a table changes.
	lastAddr, lastHist uint64
	last               ev8State
	lastOK             bool

	// metaInverted is false in a correct predictor; TamperTwoBcMeta
	// sets it for the verification selftest, inverting the direction
	// META trains toward when the two strategies disagree.
	metaInverted bool
}

// newTwoBcGSkew is the 2Bc-gskew implementation behind Spec.New.
func newTwoBcGSkew(n, histShort, histLong uint) (*TwoBcGSkew, error) {
	if n < skewfn.MinBits || n > skewfn.MaxBits {
		return nil, fmt.Errorf("predictor: table index width %d out of range", n)
	}
	if histShort > 30 || histLong > 30 {
		return nil, fmt.Errorf("predictor: history lengths (%d, %d) out of range [0,30]", histShort, histLong)
	}
	return &TwoBcGSkew{
		bim:    counter.NewTable(1<<n, 2),
		g0:     counter.NewTable(1<<n, 2),
		g1:     counter.NewTable(1<<n, 2),
		meta:   counter.NewTable(1<<n, 2),
		skew:   skewfn.New(n),
		mask:   uint64(1)<<n - 1,
		histG0: histShort,
		histG1: histLong,
	}, nil
}

type ev8State struct {
	iBim, iG0, iG1, iMeta uint64
	bim, g0, g1           bool // per-table predictions
	majority              bool
	useMajority           bool
	overall               bool
}

func (t *TwoBcGSkew) read(addr, hist uint64) ev8State {
	var s ev8State
	s.iBim = addr & t.mask
	s.iG0 = t.skew.F1(indexfn.Vector(addr, hist, t.histG0))
	s.iG1 = t.skew.F2(indexfn.Vector(addr, hist, t.histG1))
	s.iMeta = t.skew.F0(indexfn.Vector(addr, hist, t.histG0))
	s.bim = t.bim.Predict(s.iBim)
	s.g0 = t.g0.Predict(s.iG0)
	s.g1 = t.g1.Predict(s.iG1)
	votes := 0
	for _, v := range []bool{s.bim, s.g0, s.g1} {
		if v {
			votes++
		}
	}
	s.majority = votes >= 2
	s.useMajority = t.meta.Predict(s.iMeta)
	if s.useMajority {
		s.overall = s.majority
	} else {
		s.overall = s.bim
	}
	return s
}

// readCached memoises read across the Predict/Update pair.
func (t *TwoBcGSkew) readCached(addr, hist uint64) ev8State {
	if t.lastOK && t.lastAddr == addr && t.lastHist == hist {
		return t.last
	}
	t.last = t.read(addr, hist)
	t.lastAddr, t.lastHist, t.lastOK = addr, hist, true
	return t.last
}

// Predict implements Predictor.
func (t *TwoBcGSkew) Predict(addr, hist uint64) bool {
	return t.readCached(addr, hist).overall
}

// Update implements Predictor, following the EV8 partial-update
// discipline:
//
//   - overall correct, majority in use: strengthen only the agreeing
//     tables among {BIM, G0, G1};
//   - overall correct, bimodal in use: update BIM alone;
//   - overall wrong: train all three direction tables;
//   - META trains whenever the two strategies would have differed in
//     correctness, toward the one that was right.
func (t *TwoBcGSkew) Update(addr, hist uint64, taken bool) {
	s := t.readCached(addr, hist)
	t.train(s, taken)
}

// Step implements Stepper: one table read phase serves prediction and
// training.
func (t *TwoBcGSkew) Step(addr, hist uint64, taken bool) bool {
	s := t.readCached(addr, hist)
	t.train(s, taken)
	return s.overall
}

// train applies the EV8 partial-update discipline to a read state.
func (t *TwoBcGSkew) train(s ev8State, taken bool) {
	t.lastOK = false // table state changes below
	if s.overall == taken {
		if s.useMajority {
			if s.bim == taken {
				t.bim.Update(s.iBim, taken)
			}
			if s.g0 == taken {
				t.g0.Update(s.iG0, taken)
			}
			if s.g1 == taken {
				t.g1.Update(s.iG1, taken)
			}
		} else {
			t.bim.Update(s.iBim, taken)
		}
	} else {
		t.bim.Update(s.iBim, taken)
		t.g0.Update(s.iG0, taken)
		t.g1.Update(s.iG1, taken)
	}
	if (s.majority == taken) != (s.bim == taken) {
		t.meta.Update(s.iMeta, (s.majority == taken) != t.metaInverted)
	}
}

// Name implements Predictor.
func (t *TwoBcGSkew) Name() string { return "2bcgskew" }

// HistoryBits implements Predictor: the longest history consumed.
func (t *TwoBcGSkew) HistoryBits() uint { return t.histG1 }

// StorageBits implements Predictor.
func (t *TwoBcGSkew) StorageBits() int {
	return t.bim.StorageBits() + t.g0.StorageBits() + t.g1.StorageBits() + t.meta.StorageBits()
}

// Reset implements Predictor.
func (t *TwoBcGSkew) Reset() {
	t.bim.Reset()
	t.g0.Reset()
	t.g1.Reset()
	t.meta.Reset()
	t.lastOK = false
}

// IndexBits returns the per-table index width n (2^n entries each).
func (t *TwoBcGSkew) IndexBits() uint { return t.skew.Bits() }

// HistLengths returns the short (G0/META) and long (G1) history
// lengths.
func (t *TwoBcGSkew) HistLengths() (short, long uint) { return t.histG0, t.histG1 }

// Tables exposes the four counter tables, for the compiled kernel
// layer (which shares their storage).
func (t *TwoBcGSkew) Tables() (bim, g0, g1, meta *counter.Table) {
	return t.bim, t.g0, t.g1, t.meta
}

// InvalidateMemo implements MemoInvalidator: it drops the memoised
// read state, which goes stale when the tables are trained without
// going through Update (i.e. by a compiled kernel).
func (t *TwoBcGSkew) InvalidateMemo() { t.lastOK = false }

// MetaInverted reports whether the TamperTwoBcMeta fault is planted,
// so a compiled kernel reproduces it.
func (t *TwoBcGSkew) MetaInverted() bool { return t.metaInverted }

// TamperTwoBcMeta plants a chooser fault into p: when BIM and the
// majority differ in correctness, META trains toward the wrong one.
// It exists for the differential harness's fault-injection selftest
// and reports whether p is a 2Bc-gskew predictor the fault applies
// to.
func TamperTwoBcMeta(p Predictor) bool {
	t, ok := p.(*TwoBcGSkew)
	if !ok {
		return false
	}
	t.metaInverted = true
	return true
}

// String describes the configuration.
func (t *TwoBcGSkew) String() string {
	return fmt.Sprintf("4x%s-2bcgskew(h%d/h%d)", fmtEntries(t.bim.Len()), t.histG0, t.histG1)
}
