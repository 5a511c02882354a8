package counter

import "fmt"

// Bank is the storage interface predictor banks are built on. Table
// (full n-bit counters) and SplitTable (shared-hysteresis encoding)
// both implement it.
type Bank interface {
	// Predict reports the direction stored at entry i.
	Predict(i uint64) bool
	// Update trains entry i with a branch outcome.
	Update(i uint64, taken bool)
	// Len returns the number of entries.
	Len() int
	// StorageBits returns the total storage cost in bits.
	StorageBits() int
	// Reset restores the initial state.
	Reset()
}

var (
	_ Bank = (*Table)(nil)
	_ Bank = (*SplitTable)(nil)
)

// SplitTable answers the paper's "distributed predictor encodings"
// future-work question with the encoding later adopted by the Alpha
// EV8 predictor: each entry has a private prediction bit, while the
// hysteresis bit is SHARED by a group of 2^groupShift neighbouring
// entries. A 2-bit automaton therefore costs 1 + 1/2^groupShift bits
// per entry instead of 2.
//
// Decomposing the classic 2-bit counter into (prediction p, hysteresis
// h) with the encoding 0=(NT,strong) 1=(NT,weak) 2=(T,weak)
// 3=(T,strong), the transition function is
//
//	outcome == p : h = strong
//	outcome != p : if h == strong { h = weak } else { p = outcome }
//
// With groupShift == 0 (private hysteresis) SplitTable is exactly
// equivalent to a 2-bit Table; sharing introduces mild hysteresis
// interference in exchange for the storage saving.
//
// Both bit arrays are stored one bit per byte (0 or 1, hysteresis 1 =
// strong), so a compiled kernel can alias them (see PredCells and
// HystCells), as it aliases Table.Cells.
type SplitTable struct {
	pred       []uint8
	hyst       []uint8
	groupShift uint
}

// NewSplitTable returns a table of n entries whose hysteresis bits are
// shared by groups of 2^groupShift entries. All entries start
// weakly-taken (prediction taken, hysteresis weak), matching
// NewTable's initial state.
func NewSplitTable(n int, groupShift uint) *SplitTable {
	if n <= 0 {
		panic("counter: table size must be positive")
	}
	if groupShift > 8 {
		panic(fmt.Sprintf("counter: hysteresis group shift %d out of range [0,8]", groupShift))
	}
	groups := (n + (1 << groupShift) - 1) >> groupShift
	t := &SplitTable{
		pred:       make([]uint8, n),
		hyst:       make([]uint8, groups),
		groupShift: groupShift,
	}
	t.Reset()
	return t
}

// Len implements Bank.
func (t *SplitTable) Len() int { return len(t.pred) }

// GroupSize returns how many entries share one hysteresis bit.
func (t *SplitTable) GroupSize() int { return 1 << t.groupShift }

// GroupShift returns log2 of GroupSize: entry i's hysteresis bit is
// HystCells()[i>>GroupShift()].
func (t *SplitTable) GroupShift() uint { return t.groupShift }

// PredCells exposes the per-entry prediction bits (1 = taken). A
// compiled kernel steps them in place; mutations must store only 0 or
// 1.
func (t *SplitTable) PredCells() []uint8 { return t.pred }

// HystCells exposes the per-group hysteresis bits (1 = strong), under
// the same contract as PredCells.
func (t *SplitTable) HystCells() []uint8 { return t.hyst }

// Predict implements Bank.
func (t *SplitTable) Predict(i uint64) bool { return t.pred[i] != 0 }

// Update implements Bank.
func (t *SplitTable) Update(i uint64, taken bool) {
	g := i >> t.groupShift
	if (t.pred[i] != 0) == taken {
		t.hyst[g] = 1
		return
	}
	if t.hyst[g] != 0 {
		t.hyst[g] = 0
		return
	}
	t.pred[i] ^= 1
}

// Value returns the equivalent 2-bit counter state of entry i
// (0..3), for diagnostics and equivalence tests.
func (t *SplitTable) Value(i uint64) uint8 {
	p, h := t.pred[i] != 0, t.hyst[i>>t.groupShift] != 0
	switch {
	case p && h:
		return 3
	case p:
		return 2
	case h:
		return 0
	default:
		return 1
	}
}

// TamperPrivateHysteresis plants the shared-hysteresis fault the
// differential harness's selftest must catch: the table silently
// switches to one private hysteresis bit per entry (group shift 0),
// every one restarting weak.
func TamperPrivateHysteresis(t *SplitTable) {
	t.groupShift = 0
	t.hyst = make([]uint8, len(t.pred))
}

// StorageBits implements Bank: one prediction bit per entry plus one
// hysteresis bit per group.
func (t *SplitTable) StorageBits() int { return len(t.pred) + len(t.hyst) }

// Reset implements Bank: every entry returns to weakly-taken.
func (t *SplitTable) Reset() {
	for i := range t.pred {
		t.pred[i] = 1
	}
	clear(t.hyst)
}
