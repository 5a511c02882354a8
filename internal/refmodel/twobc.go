package refmodel

// This file transcribes 2Bc-gskew (Seznec, Felix, Krishnan and
// Sazeides, "Design Tradeoffs for the Alpha EV8 Conditional Branch
// Predictor", ISCA 2002) as an executable specification, in the same
// naive style as the rest of the package: indices computed bit by bit
// through this package's own f0/f1/f2, state in Go maps of counter
// automata, no code shared with internal/predictor.
//
// The predictor has four tables of 2-bit counters:
//
//   - BIM, indexed by the branch address alone;
//   - G0, indexed by f1 of the short-history information vector;
//   - G1, indexed by f2 of the long-history information vector;
//   - META, indexed by f0 of the short-history information vector.
//
// BIM, G0 and G1 form an e-gskew whose majority vote is one
// prediction; BIM alone is the other; META chooses between them.

// specTwoBcCtrBits is the width of every 2Bc-gskew counter.
const specTwoBcCtrBits = 2

// SpecTwoBcGSkew is the specification of the 2Bc-gskew hybrid.
type SpecTwoBcGSkew struct {
	n, short, long uint
	bim, g0, g1    map[uint64]SpecCounter
	meta           map[uint64]SpecCounter
}

// NewSpecTwoBcGSkew returns the spec of a 4x2^n-entry 2Bc-gskew whose
// G0 and META see short history bits and whose G1 sees long.
func NewSpecTwoBcGSkew(n, short, long uint) *SpecTwoBcGSkew {
	checkWidth(n)
	return &SpecTwoBcGSkew{
		n: n, short: short, long: long,
		bim:  make(map[uint64]SpecCounter),
		g0:   make(map[uint64]SpecCounter),
		g1:   make(map[uint64]SpecCounter),
		meta: make(map[uint64]SpecCounter),
	}
}

// specTwoBcRead is everything one reference reads: the four indices
// and the predictions they yield.
type specTwoBcRead struct {
	iBim, iG0, iG1, iMeta uint64
	bim, g0, g1           bool // per-table directions
	egskew                bool // majority of bim, g0 and g1
	chooseEgskew          bool // META's direction
}

func lookup(m map[uint64]SpecCounter, i uint64) SpecCounter {
	if c, ok := m[i]; ok {
		return c
	}
	return NewSpecCounter(specTwoBcCtrBits)
}

func (s *SpecTwoBcGSkew) read(addr, hist uint64) specTwoBcRead {
	vShort := Vector(addr, hist, s.short)
	vLong := Vector(addr, hist, s.long)
	r := specTwoBcRead{
		iBim:  BimodalIndex(addr, s.n),
		iG0:   F1(vShort, s.n),
		iG1:   F2(vLong, s.n),
		iMeta: F0(vShort, s.n),
	}
	r.bim = lookup(s.bim, r.iBim).Predict()
	r.g0 = lookup(s.g0, r.iG0).Predict()
	r.g1 = lookup(s.g1, r.iG1).Predict()
	ayes := 0
	for _, v := range []bool{r.bim, r.g0, r.g1} {
		if v {
			ayes++
		}
	}
	r.egskew = ayes >= 2
	r.chooseEgskew = lookup(s.meta, r.iMeta).Predict()
	return r
}

// final is the prediction META selects.
func (r specTwoBcRead) final() bool {
	if r.chooseEgskew {
		return r.egskew
	}
	return r.bim
}

// Predict implements Spec.
func (s *SpecTwoBcGSkew) Predict(addr, hist uint64) bool {
	return s.read(addr, hist).final()
}

// Update implements Spec with the paper's partial update policy:
//
//   - on a correct prediction from the e-gskew, strengthen only the
//     tables among BIM, G0 and G1 whose own direction was correct;
//   - on a correct prediction from BIM, strengthen BIM alone;
//   - on a misprediction, train BIM, G0 and G1;
//   - whenever BIM and the e-gskew vote predicted different
//     directions, train META toward the e-gskew if it was the correct
//     one and toward BIM otherwise.
func (s *SpecTwoBcGSkew) Update(addr, hist uint64, taken bool) {
	r := s.read(addr, hist)
	train := func(m map[uint64]SpecCounter, i uint64) {
		m[i] = lookup(m, i).Update(taken)
	}
	switch {
	case r.final() != taken:
		train(s.bim, r.iBim)
		train(s.g0, r.iG0)
		train(s.g1, r.iG1)
	case r.chooseEgskew:
		if r.bim == taken {
			train(s.bim, r.iBim)
		}
		if r.g0 == taken {
			train(s.g0, r.iG0)
		}
		if r.g1 == taken {
			train(s.g1, r.iG1)
		}
	default:
		train(s.bim, r.iBim)
	}
	if r.bim != r.egskew {
		s.meta[r.iMeta] = lookup(s.meta, r.iMeta).Update(r.egskew == taken)
	}
}

// Name implements Spec.
func (s *SpecTwoBcGSkew) Name() string { return "spec-2bcgskew" }

// HistoryBits implements Spec: the long history length.
func (s *SpecTwoBcGSkew) HistoryBits() uint { return s.long }
