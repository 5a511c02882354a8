package experiments

import (
	"gskew/internal/alias"
	"gskew/internal/counter"
	"gskew/internal/history"
	"gskew/internal/indexfn"
	"gskew/internal/obs"
	"gskew/internal/sim"
	"gskew/internal/trace"
)

// mProfileBuilds counts substream profiles built (each memoised one
// once per Context).
var mProfileBuilds = obs.NewCounter("experiments.profile.builds")

// substreamProfile is a workload's conditional reference stream at one
// history length, interned to dense substream IDs (indexfn.Interner,
// first-use order) and reduced to what the aliasing analyses read:
// the ID stream, each reference's outcome and last-use distance D, in
// reference order, and per ID its first (address, history) and its
// direction tally. The tagged tables run over the ID stream
// (alias.TaggedDM ObserveIDs), the FA-LRU column is read off the
// profiler's distance histogram (alias.StackDist.MissRatioAt), the
// analytical model replays the distances in order, and the unaliased
// table replays the IDs with their outcomes (unaliased).
type substreamProfile struct {
	ids      []int32          // per reference: substream ID
	outcomes []uint64         // per reference: taken, a bitset (bitAt)
	dists    []int32          // per reference: last-use distance, alias.Cold on first use; nil until profiled
	sd       *alias.StackDist // the profiler, kept for its distance histogram; nil until profiled

	addrs, hists []uint64 // per ID: (address, history) of its first reference
	taken, total []int32  // per ID: taken and all references
}

// internStream interns the conditional branches of branches under a
// histBits-bit global history: the ID stream, the outcomes and the per
// ID tallies, without stack distances.
func internStream(branches []trace.Branch, histBits uint) *substreamProfile {
	n := 0
	for _, b := range branches {
		if b.Kind == trace.Conditional {
			n++
		}
	}
	p := &substreamProfile{ids: make([]int32, 0, n), outcomes: make([]uint64, (n+63)/64)}
	in := indexfn.NewInterner(n / 8)
	ghr := history.NewGlobal(histBits)
	for _, b := range branches {
		if b.Kind == trace.Conditional {
			h := ghr.Bits()
			id, first := in.ID(indexfn.Vector(b.PC, h, histBits))
			if first {
				p.addrs = append(p.addrs, b.PC)
				p.hists = append(p.hists, h)
				p.taken = append(p.taken, 0)
				p.total = append(p.total, 0)
			}
			p.total[id]++
			if b.Taken {
				p.taken[id]++
				setBit(p.outcomes, len(p.ids))
			}
			p.ids = append(p.ids, id)
		}
		ghr.Shift(b.Taken)
	}
	return p
}

// buildProfile interns the conditional branches of branches under a
// histBits-bit global history and profiles their stack distances.
func buildProfile(branches []trace.Branch, histBits uint) *substreamProfile {
	p := internStream(branches, histBits)
	p.sd = alias.NewStackDist(len(p.ids))
	p.dists = make([]int32, len(p.ids))
	for i, id := range p.ids {
		p.dists[i] = int32(p.sd.ObserveID(id))
	}
	mProfileBuilds.Inc()
	return p
}

// bitAt reports bit i of a per-reference bitset: bit i%64 of word
// i/64.
func bitAt(words []uint64, i int) bool { return words[i>>6]>>(i&63)&1 != 0 }

// setBit sets bit i of a per-reference bitset.
func setBit(words []uint64, i int) { words[i>>6] |= 1 << (i & 63) }

// unaliased replays an infinite table of ctrBits-wide counters, one
// per substream ID, over the reference stream: predictor.Unaliased run
// through sim with SkipFirstUse. An ID's first reference starts its
// counter in the weak state agreeing with the outcome, trains it and
// is not counted; every later reference predicts, then trains. First
// uses stay in the denominator, as in the paper's Table 2. When preds
// is non-nil (one bit per reference, zeroed), each counted reference's
// prediction is written into it.
func (p *substreamProfile) unaliased(ctrBits uint, preds []uint64) sim.Result {
	res := sim.Result{Conditionals: len(p.ids), FirstUses: len(p.addrs)}
	if len(p.addrs) == 0 {
		return res
	}
	t := counter.NewTable(len(p.addrs), ctrBits)
	weakT, weakN := counter.WeaklyTaken(ctrBits).Value(), counter.WeaklyNotTaken(ctrBits).Value()
	next := int32(0) // IDs arrive in first-use order: id == next marks a first use
	for i, id := range p.ids {
		taken, c := bitAt(p.outcomes, i), uint64(id)
		if id == next {
			next++
			if taken {
				t.Set(c, weakT)
			} else {
				t.Set(c, weakN)
			}
		} else {
			pred := t.Predict(c)
			if pred != taken {
				res.Mispredicts++
			}
			if pred && preds != nil {
				setBit(preds, i)
			}
		}
		t.Update(c, taken)
	}
	return res
}

// substreamRatio returns substreams per distinct branch address, Table
// 2's first column.
func (p *substreamProfile) substreamRatio() float64 {
	if len(p.addrs) == 0 {
		return 0
	}
	addrs := indexfn.NewInterner(len(p.addrs))
	for _, a := range p.addrs {
		addrs.ID(a)
	}
	return float64(len(p.addrs)) / float64(addrs.Len())
}

// interference classifies every reference of the stream against a
// single-bank table over fn of ctrBits-wide counters, as
// alias.Interference does: the table's aliasing by a TaggedDM keyed by
// ID, its prediction by the finite counters, indexed through each
// ID's cached index, and the aliasing-free prediction by oracle, the
// per-reference predictions of p.unaliased(ctrBits, oracle). A
// reference is cold exactly when it is its ID's first.
func (p *substreamProfile) interference(fn indexfn.Func, ctrBits uint, oracle []uint64) alias.InterferenceStats {
	st := alias.InterferenceStats{References: len(p.ids)}
	if len(p.addrs) == 0 {
		return st
	}
	index := make([]uint64, len(p.addrs))
	for id, addr := range p.addrs {
		index[id] = fn.Index(addr, p.hists[id])
	}
	tags := alias.NewTaggedDM(fn)
	finite := counter.NewTable(1<<fn.Bits(), ctrBits)
	next := int32(0)
	for i, id := range p.ids {
		taken := bitAt(p.outcomes, i)
		aliased := tags.ObserveID(id, p.addrs[id], p.hists[id])
		finitePred := finite.Predict(index[id])
		finite.Update(index[id], taken)
		oraclePred := bitAt(oracle, i)
		switch {
		case id == next:
			next++
			st.ColdOracle++
		case !aliased:
			st.Unaliased++
		case finitePred == oraclePred:
			st.Harmless++
		case oraclePred == taken:
			st.Destructive++
		default:
			st.Constructive++
		}
	}
	return st
}

// dmMissRatio runs a tagged direct-mapped table over fn on the ID
// stream and returns its miss ratio.
func (p *substreamProfile) dmMissRatio(fn indexfn.Func) float64 {
	dm := alias.NewTaggedDM(fn)
	dm.ObserveIDs(p.ids, p.addrs, p.hists)
	return dm.MissRatio()
}

// profileKey identifies a memoised profile: the trace, by its Context
// identity, and the history length.
type profileKey struct {
	trace string
	hist  uint
}

// profileEntry is one claimed profile; done closes when the claiming
// caller publishes it.
type profileEntry struct {
	done chan struct{}
	p    *substreamProfile
	err  error
}

// substreams returns workload name's substream profile at histBits
// history bits, built once per Context: the first caller builds it,
// and concurrent callers wait for that build instead of repeating it.
// The profile is kept for the Context's lifetime, so only history
// lengths several experiments share should go through the memo.
func (c *Context) substreams(name string, histBits uint) (*substreamProfile, error) {
	k := profileKey{trace: c.traceID(name), hist: histBits}
	c.memoMu.Lock()
	if c.profiles == nil {
		c.profiles = make(map[profileKey]*profileEntry)
	}
	e := c.profiles[k]
	if e != nil {
		c.memoMu.Unlock()
		<-e.done
		return e.p, e.err
	}
	e = &profileEntry{done: make(chan struct{})}
	c.profiles[k] = e
	c.memoMu.Unlock()

	branches, err := c.Trace(name)
	if err == nil {
		e.p = buildProfile(branches, histBits)
	}
	e.err = err
	close(e.done)
	return e.p, e.err
}
