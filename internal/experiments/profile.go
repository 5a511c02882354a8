package experiments

import (
	"gskew/internal/alias"
	"gskew/internal/history"
	"gskew/internal/indexfn"
	"gskew/internal/obs"
	"gskew/internal/trace"
)

// mProfileBuilds counts substream profiles built (each memoised one
// once per Context).
var mProfileBuilds = obs.NewCounter("experiments.profile.builds")

// substreamProfile is a workload's conditional reference stream at one
// history length, interned to dense substream IDs (indexfn.Interner,
// first-use order) and reduced to what the aliasing analyses read:
// the ID stream and each reference's last-use distance D, in reference
// order, and per ID its first (address, history) and its direction
// tally. The tagged tables run over the ID stream (alias.TaggedDM
// ObserveIDs), the FA-LRU column is read off the profiler's distance
// histogram (alias.StackDist.MissRatioAt), and the analytical model
// replays the distances in order.
type substreamProfile struct {
	ids   []int32          // per reference: substream ID
	dists []int32          // per reference: last-use distance, alias.Cold on first use
	sd    *alias.StackDist // the profiler, kept for its distance histogram

	addrs, hists []uint64 // per ID: (address, history) of its first reference
	taken, total []int32  // per ID: taken and all references
}

// buildProfile interns the conditional branches of branches under a
// histBits-bit global history and profiles their stack distances.
func buildProfile(branches []trace.Branch, histBits uint) *substreamProfile {
	n := 0
	for _, b := range branches {
		if b.Kind == trace.Conditional {
			n++
		}
	}
	p := &substreamProfile{ids: make([]int32, 0, n), dists: make([]int32, 0, n), sd: alias.NewStackDist(n)}
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
			}
			p.ids = append(p.ids, id)
			p.dists = append(p.dists, int32(p.sd.ObserveID(id)))
		}
		ghr.Shift(b.Taken)
	}
	mProfileBuilds.Inc()
	return p
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
