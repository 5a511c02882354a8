package predictor

import (
	"fmt"

	"gskew/internal/counter"
	"gskew/internal/indexfn"
	"gskew/internal/skewfn"
)

// UpdatePolicy selects how a skewed predictor trains its banks
// (section 4.1 of the paper).
type UpdatePolicy uint8

const (
	// PartialUpdate: when the overall prediction is correct, banks
	// that voted against it are NOT updated — their entry is presumed
	// to belong to a different substream, which effectively enlarges
	// the predictor's capacity. When the overall prediction is wrong,
	// all banks are trained. This is the paper's recommended policy.
	PartialUpdate UpdatePolicy = iota
	// TotalUpdate trains every bank on every branch, as if each were a
	// standalone predictor.
	TotalUpdate
)

// String returns "partial" or "total".
func (p UpdatePolicy) String() string {
	switch p {
	case PartialUpdate:
		return "partial"
	case TotalUpdate:
		return "total"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// GSkewed is the skewed branch predictor: an odd number of identical
// tag-less banks indexed by distinct skewing functions of the
// information vector V = (address, history), with a majority vote
// across banks deciding the prediction.
type GSkewed struct {
	banks    []counter.Bank
	tabs     []*counter.Table      // non-nil when every bank is a plain Table: devirtualised hot path
	splits   []*counter.SplitTable // non-nil when every bank uses the shared-hysteresis encoding
	skew     *skewfn.Skewer
	policy   UpdatePolicy
	histBits uint
	enhanced bool
	name     string

	idx   []uint64 // scratch: per-bank indices
	preds []bool   // scratch: per-bank predictions

	// Memoisation across the Predict/Update pair the runner issues per
	// branch: idx depends only on the reference key (so idxOK survives
	// updates), while preds and the vote read bank state (voteOK is
	// cleared whenever the banks change).
	keyAddr, keyHist uint64
	idxOK            bool
	voteOK           bool
	lastVote         bool
}

// Config parameterises a skewed predictor.
type Config struct {
	// Banks is the number of predictor banks (odd, >= 3; default 3).
	Banks int
	// BankBits n gives 2^n entries per bank.
	BankBits uint
	// HistoryBits is the global-history length k.
	HistoryBits uint
	// CounterBits is the automaton width in bits, 1 to 8 (default 2).
	CounterBits uint
	// Policy selects partial or total update (default partial).
	Policy UpdatePolicy
	// Enhanced selects the enhanced skewed predictor of section 6:
	// bank 0 is indexed by address alone (bit truncation), so its
	// entries see the much shorter per-address last-use distance and
	// rescue long-history references whose other banks have aliased.
	// Enhanced requires exactly 3 banks.
	Enhanced bool
	// SharedHysteresis selects the distributed encoding of the
	// future-work section (and of the Alpha EV8): banks store one
	// prediction bit per entry plus one hysteresis bit shared by
	// 2^SharedHysteresis entries, costing 1 + 2^-SharedHysteresis
	// bits/entry instead of CounterBits. Requires CounterBits == 2
	// (the encoding is a decomposition of the 2-bit automaton).
	// Zero means full private counters.
	SharedHysteresis uint
}

// NewGSkewed builds a skewed predictor from cfg.
func NewGSkewed(cfg Config) (*GSkewed, error) {
	if cfg.Banks == 0 {
		cfg.Banks = 3
	}
	if cfg.Banks < 3 || cfg.Banks%2 == 0 {
		return nil, fmt.Errorf("predictor: bank count %d must be odd and >= 3", cfg.Banks)
	}
	if cfg.Enhanced && cfg.Banks != 3 {
		return nil, fmt.Errorf("predictor: enhanced gskewed requires 3 banks, got %d", cfg.Banks)
	}
	if cfg.CounterBits == 0 {
		cfg.CounterBits = 2
	}
	if cfg.BankBits < skewfn.MinBits || cfg.BankBits > skewfn.MaxBits {
		return nil, fmt.Errorf("predictor: bank index width %d out of range [%d,%d]",
			cfg.BankBits, skewfn.MinBits, skewfn.MaxBits)
	}
	if cfg.HistoryBits > 30 {
		return nil, fmt.Errorf("predictor: history length %d out of range [0,30]", cfg.HistoryBits)
	}
	if cfg.SharedHysteresis > 0 && cfg.CounterBits != 2 {
		return nil, fmt.Errorf("predictor: shared hysteresis requires 2-bit counters, got %d", cfg.CounterBits)
	}
	if cfg.SharedHysteresis > 8 {
		return nil, fmt.Errorf("predictor: shared hysteresis group shift %d out of range [0,8]", cfg.SharedHysteresis)
	}
	g := &GSkewed{
		skew:     skewfn.New(cfg.BankBits),
		policy:   cfg.Policy,
		histBits: cfg.HistoryBits,
		enhanced: cfg.Enhanced,
		idx:      make([]uint64, cfg.Banks),
		preds:    make([]bool, cfg.Banks),
	}
	for i := 0; i < cfg.Banks; i++ {
		if cfg.SharedHysteresis > 0 {
			t := counter.NewSplitTable(1<<cfg.BankBits, cfg.SharedHysteresis)
			g.banks = append(g.banks, t)
			g.splits = append(g.splits, t)
		} else {
			t := counter.NewTable(1<<cfg.BankBits, cfg.CounterBits)
			g.banks = append(g.banks, t)
			g.tabs = append(g.tabs, t)
		}
	}
	if cfg.Enhanced {
		g.name = "egskew"
	} else {
		g.name = "gskewed"
	}
	return g, nil
}

// MustGSkewed is NewGSkewed, panicking on configuration errors.
// Intended for experiment tables whose configurations are static.
func MustGSkewed(cfg Config) *GSkewed {
	g, err := NewGSkewed(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// indices fills g.idx for the reference, reusing the memoised indices
// when the reference key repeats.
func (g *GSkewed) indices(addr, hist uint64) {
	if g.idxOK && g.keyAddr == addr && g.keyHist == hist {
		return
	}
	g.keyAddr, g.keyHist = addr, hist
	g.idxOK, g.voteOK = true, false
	v := indexfn.Vector(addr, hist, g.histBits)
	if g.enhanced {
		// Bank 0: plain address truncation; banks 1 and 2: f1, f2 of
		// the full vector (section 6).
		g.idx[0] = addr & g.skew.Mask()
		g.idx[1] = g.skew.F1(v)
		g.idx[2] = g.skew.F2(v)
		return
	}
	g.skew.Indices(g.idx, v)
}

// vote computes per-bank predictions into g.preds and returns the
// majority direction.
func (g *GSkewed) vote() bool {
	ayes := 0
	if g.tabs != nil {
		// Devirtualised: direct (inlinable) table reads.
		for k, t := range g.tabs {
			p := t.Predict(g.idx[k])
			g.preds[k] = p
			if p {
				ayes++
			}
		}
		return ayes*2 > len(g.tabs)
	}
	for k, bank := range g.banks {
		p := bank.Predict(g.idx[k])
		g.preds[k] = p
		if p {
			ayes++
		}
	}
	return ayes*2 > len(g.banks)
}

// cachedVote returns the majority direction for the current indices,
// reusing the vote (and g.preds) computed by a preceding Predict of
// the same reference when the banks have not changed since.
func (g *GSkewed) cachedVote() bool {
	if !g.voteOK {
		g.lastVote = g.vote()
		g.voteOK = true
	}
	return g.lastVote
}

// Predict implements Predictor.
func (g *GSkewed) Predict(addr, hist uint64) bool {
	g.indices(addr, hist)
	return g.cachedVote()
}

// Update implements Predictor.
func (g *GSkewed) Update(addr, hist uint64, taken bool) {
	g.indices(addr, hist)
	g.train(g.cachedVote(), taken)
}

// Step implements Stepper: Predict and Update fused, computing the
// indices and the vote once.
func (g *GSkewed) Step(addr, hist uint64, taken bool) bool {
	g.indices(addr, hist)
	overall := g.cachedVote()
	g.train(overall, taken)
	return overall
}

// train applies the update policy given the overall vote.
func (g *GSkewed) train(overall, taken bool) {
	partialSkip := g.policy == PartialUpdate && overall == taken
	if g.tabs != nil {
		for k, t := range g.tabs {
			if partialSkip && g.preds[k] != taken {
				// Overall prediction was good; leave the dissenting
				// bank to serve whatever substream it is tracking.
				continue
			}
			t.Update(g.idx[k], taken)
		}
	} else {
		for k, bank := range g.banks {
			if partialSkip && g.preds[k] != taken {
				continue
			}
			bank.Update(g.idx[k], taken)
		}
	}
	g.voteOK = false // bank state changed
}

// Name implements Predictor.
func (g *GSkewed) Name() string { return g.name }

// HistoryBits implements Predictor.
func (g *GSkewed) HistoryBits() uint { return g.histBits }

// StorageBits implements Predictor.
func (g *GSkewed) StorageBits() int {
	total := 0
	for _, b := range g.banks {
		total += b.StorageBits()
	}
	return total
}

// Reset implements Predictor.
func (g *GSkewed) Reset() {
	for _, b := range g.banks {
		b.Reset()
	}
	g.voteOK = false
}

// Banks returns the number of banks.
func (g *GSkewed) Banks() int { return len(g.banks) }

// BankEntries returns the per-bank entry count.
func (g *GSkewed) BankEntries() int { return g.banks[0].Len() }

// Policy returns the update policy.
func (g *GSkewed) Policy() UpdatePolicy { return g.policy }

// BankBits returns the per-bank index width n (2^n entries per bank).
func (g *GSkewed) BankBits() uint { return g.skew.Bits() }

// Enhanced reports whether bank 0 is indexed by address truncation
// (the enhanced skewed predictor of section 6).
func (g *GSkewed) Enhanced() bool { return g.enhanced }

// BankTables exposes the plain counter tables backing the banks, in
// bank order, or nil when the banks use the shared-hysteresis
// encoding. The compiled kernel layer shares their storage.
func (g *GSkewed) BankTables() []*counter.Table { return g.tabs }

// SplitTables exposes the shared-hysteresis tables backing the banks,
// in bank order, or nil when the banks are plain counter tables. The
// compiled kernel layer shares their storage.
func (g *GSkewed) SplitTables() []*counter.SplitTable { return g.splits }

// Skewer returns the skewing functions the banks are indexed by; the
// compiled kernel layer tabulates them (see skewfn.Skewer.Exact).
func (g *GSkewed) Skewer() *skewfn.Skewer { return g.skew }

// TamperSkewRotation plants the rotation off-by-one of
// skewfn.Skewer.TamperRotation into p's extra banks, for the
// differential harness's fault-injection selftest. It reports whether
// p is a skewed predictor with more than three banks, the only shape
// the fault reaches.
func TamperSkewRotation(p Predictor) bool {
	g, ok := p.(*GSkewed)
	if !ok || len(g.banks) <= 3 {
		return false
	}
	g.skew.TamperRotation()
	g.idxOK, g.voteOK = false, false
	return true
}

// TamperSharedHystPrivate plants counter.TamperPrivateHysteresis into
// every bank of p, for the differential harness's fault-injection
// selftest. It reports whether p is a skewed predictor with
// shared-hysteresis banks of more than one entry per group.
func TamperSharedHystPrivate(p Predictor) bool {
	g, ok := p.(*GSkewed)
	if !ok || g.splits == nil || g.splits[0].GroupShift() == 0 {
		return false
	}
	for _, t := range g.splits {
		counter.TamperPrivateHysteresis(t)
	}
	g.voteOK = false
	return true
}

// InvalidateMemo implements MemoInvalidator: it drops the memoised
// indices and vote, which go stale when bank state is trained without
// going through Update (i.e. by a compiled kernel).
func (g *GSkewed) InvalidateMemo() { g.idxOK, g.voteOK = false, false }

// IndicesFor returns the per-bank table indices a reference maps to.
// It allocates; it exists for diagnostics, tools and tests, not for
// the simulation hot path.
func (g *GSkewed) IndicesFor(addr, hist uint64) []uint64 {
	g.indices(addr, hist)
	out := make([]uint64, len(g.idx))
	copy(out, g.idx)
	return out
}

// BankValue returns the raw counter state bank k holds for the given
// reference (as an equivalent 2-bit state for shared-hysteresis
// banks). Diagnostic API.
func (g *GSkewed) BankValue(k int, addr, hist uint64) uint8 {
	g.indices(addr, hist)
	switch b := g.banks[k].(type) {
	case *counter.Table:
		return b.Value(g.idx[k])
	case *counter.SplitTable:
		return b.Value(g.idx[k])
	default:
		panic("predictor: unknown bank type")
	}
}

// PredictConfident returns the majority prediction together with a
// confidence signal: unanimous is true when every bank agrees. Vote
// margins are the natural confidence estimator of a skewed predictor
// (the EV8 design used them); the ext-confidence experiment quantifies
// how much more accurate unanimous predictions are.
func (g *GSkewed) PredictConfident(addr, hist uint64) (taken, unanimous bool) {
	g.indices(addr, hist)
	taken = g.cachedVote()
	unanimous = true
	for _, p := range g.preds {
		if p != taken {
			unanimous = false
			break
		}
	}
	return taken, unanimous
}

// String describes the configuration the way the paper writes it,
// e.g. "3x4k-gskewed(h8,2bit,partial)".
func (g *GSkewed) String() string {
	enc := "?"
	switch b := g.banks[0].(type) {
	case *counter.Table:
		enc = fmt.Sprintf("%dbit", b.Bits())
	case *counter.SplitTable:
		enc = fmt.Sprintf("1+h/%d", b.GroupSize())
	}
	return fmt.Sprintf("%dx%s-%s(h%d,%s,%s)",
		len(g.banks), fmtEntries(g.banks[0].Len()), g.name,
		g.histBits, enc, g.policy)
}
