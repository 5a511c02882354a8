package alias

import (
	"fmt"

	"gskew/internal/indexfn"
	"gskew/internal/predictor"
)

// This file implements the interference classification of Young, Gloy
// and Smith (the paper's reference [21], quoted in section 1):
// aliasing occurrences are destructive (cause a misprediction that the
// unaliased predictor avoids), constructive (accidentally fix a
// prediction the unaliased predictor gets wrong) or harmless (no
// change). The paper relies on [21]'s finding that "constructive
// aliasing is much less likely than destructive aliasing", and its
// analytical model overestimates misprediction precisely because it
// ignores the constructive term — this classifier measures both.

// InterferenceKind classifies one conditional-branch reference.
type InterferenceKind int

// Classification outcomes.
const (
	// Unaliased: the table entry held this reference's own substream.
	Unaliased InterferenceKind = iota
	// Harmless: the entry was aliased, but the prediction equals what
	// the unaliased predictor would have said.
	Harmless
	// Destructive: aliasing changed a correct prediction into a wrong
	// one.
	Destructive
	// Constructive: aliasing changed a wrong prediction into a
	// correct one.
	Constructive
	// ColdOracle: the unaliased oracle had not yet seen the substream,
	// so the reference cannot be classified against it.
	ColdOracle
)

// String names the kind.
func (k InterferenceKind) String() string {
	switch k {
	case Unaliased:
		return "unaliased"
	case Harmless:
		return "harmless"
	case Destructive:
		return "destructive"
	case Constructive:
		return "constructive"
	case ColdOracle:
		return "cold-oracle"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// InterferenceStats aggregates a classification run.
type InterferenceStats struct {
	References   int
	Unaliased    int
	Harmless     int
	Destructive  int
	Constructive int
	ColdOracle   int
}

// Aliased returns all references whose entry was aliased.
func (s InterferenceStats) Aliased() int {
	return s.Harmless + s.Destructive + s.Constructive
}

// DestructiveRatio returns destructive occurrences per reference.
func (s InterferenceStats) DestructiveRatio() float64 { return ratio(s.Destructive, s.References) }

// ConstructiveRatio returns constructive occurrences per reference.
func (s InterferenceStats) ConstructiveRatio() float64 { return ratio(s.Constructive, s.References) }

// Interference classifies the aliasing of a direct-mapped single-bank
// predictor by running, in lockstep on the same stream:
//
//   - the finite predictor under study (index function + counters),
//   - a tagged table detecting whether each access was aliased,
//   - an unaliased oracle giving the aliasing-free prediction.
//
// The oracle's counter slots key the tagged table, so a reference pays
// one interner probe and the table's index is computed once per
// substream.
type Interference struct {
	finite *predictor.Single
	tags   *TaggedDM
	oracle *predictor.Unaliased
	stats  InterferenceStats
}

// NewInterference builds a classifier for a single-bank predictor over
// fn with counterBits-wide cells.
func NewInterference(fn indexfn.Func, counterBits uint) *Interference {
	return &Interference{
		finite: predictor.NewSingle(fn, counterBits),
		tags:   NewTaggedDM(fn),
		oracle: predictor.NewUnaliased(fn.HistoryBits(), counterBits),
	}
}

// Observe classifies one conditional reference and trains all three
// structures with the outcome.
func (n *Interference) Observe(addr, hist uint64, taken bool) InterferenceKind {
	n.stats.References++

	// The oracle trains on every reference, so its counter slots are
	// the substreams' dense IDs in first-use order. The three
	// structures are independent, so each predicts and trains in one
	// fused step.
	id := n.oracle.Slot(addr, hist)
	oracleSeen := id >= 0
	oraclePred := n.oracle.Step(addr, hist, taken)
	if !oracleSeen {
		id = n.oracle.Slot(addr, hist) // the slot Step allocated
	}
	aliased := n.tags.ObserveID(id, addr, hist) // also refreshes the tag
	finitePred := n.finite.Step(addr, hist, taken)

	kind := Unaliased
	switch {
	case !oracleSeen:
		kind = ColdOracle
	case !aliased:
		kind = Unaliased
	case finitePred == oraclePred:
		kind = Harmless
	case oraclePred == taken:
		kind = Destructive
	default:
		kind = Constructive
	}
	switch kind {
	case Unaliased:
		n.stats.Unaliased++
	case Harmless:
		n.stats.Harmless++
	case Destructive:
		n.stats.Destructive++
	case Constructive:
		n.stats.Constructive++
	case ColdOracle:
		n.stats.ColdOracle++
	}
	return kind
}

// Stats returns the aggregate counts so far.
func (n *Interference) Stats() InterferenceStats { return n.stats }
