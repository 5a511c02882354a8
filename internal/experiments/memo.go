package experiments

import (
	"fmt"
	"time"

	"gskew/internal/obs"
	"gskew/internal/predictor"
	"gskew/internal/sim"
	"gskew/internal/store"
)

// Memo telemetry: predictor results served from the memo, and results
// simulated (each distinct cell once per Context).
var (
	mMemoHits   = obs.NewCounter("experiments.memo.hits")
	mMemoMisses = obs.NewCounter("experiments.memo.misses")
)

// memoKey fully determines one simulated result: the trace (by its
// Context identity, never by content — hashing the long recorded
// streams would cost more than most cells), the predictor (by its
// canonical spec, so it is always built fresh) and the options that
// change results.
type memoKey struct {
	trace string
	spec  string
	opts  store.Options
}

// memoEntry is one claimed cell. done closes when the owner publishes
// the result (and its interval curve, when the Context records them)
// or gives the claim up with err.
type memoEntry struct {
	done   chan struct{}
	res    sim.Result
	points []obs.Point
	err    error
}

// RunSpecs simulates the predictors specs describe over workload name
// and returns their results in spec order, exactly as RunMany over
// freshly built predictors would. A benchmark is read from the Context
// trace cache; an algo spec is streamed (see Context.source): the
// algorithm runs during the pass and its branches are simulated block
// by block, never held, and never read from or written to the trace
// pool. Each distinct (trace, spec, result-changing options) cell is
// simulated once per Context: later requests for it, from any
// experiment, are served from the memo.
//
// Concurrent calls share work single-flight. A call claims the keys
// nobody holds, runs all of them in one sim.RunMany pass, and
// publishes them before it waits on keys another call claimed; since
// no call waits while holding an unpublished claim, calls never
// deadlock. A failed run releases its claims, so the keys are retried
// by the next request, and hands its error to every waiter.
//
// With RunObs set, every call reports as one cell, whether or not it
// simulated: a hit re-emits the stored interval curve under this
// cell's label, and the manifest marks which predictors were hits. Obs
// must be set before the Context's first run.
func (c *Context) RunSpecs(cell, name string, specs []predictor.Spec, opts sim.Options) ([]sim.Result, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	start := time.Now()
	tid, kopts := c.traceID(name), store.NormalizeOptions(opts)
	labels := make([]string, len(specs))
	entries := make([]*memoEntry, len(specs))
	hits := make([]bool, len(specs))
	var claimed []int
	c.memoMu.Lock()
	if c.memo == nil {
		c.memo = make(map[memoKey]*memoEntry)
	}
	for i, s := range specs {
		labels[i] = s.String()
		k := memoKey{trace: tid, spec: labels[i], opts: kopts}
		e := c.memo[k]
		if e == nil {
			e = &memoEntry{done: make(chan struct{})}
			c.memo[k] = e
			claimed = append(claimed, i)
		} else {
			hits[i] = true
		}
		entries[i] = e
	}
	c.memoMu.Unlock()

	if len(claimed) > 0 {
		if err := c.runClaimed(cell, name, specs, labels, claimed, entries, opts); err != nil {
			c.memoMu.Lock()
			for _, i := range claimed {
				delete(c.memo, memoKey{trace: tid, spec: labels[i], opts: kopts})
			}
			c.memoMu.Unlock()
			for _, i := range claimed {
				entries[i].err = err
				close(entries[i].done)
			}
			return nil, err
		}
		mMemoMisses.Add(int64(len(claimed)))
	}
	if n := len(specs) - len(claimed); n > 0 {
		mMemoHits.Add(int64(n))
	}

	results := make([]sim.Result, len(specs))
	var series []*obs.Series
	if o := c.Obs; o != nil && o.Intervals > 0 {
		series = make([]*obs.Series, len(specs))
	}
	for i, e := range entries {
		<-e.done
		if e.err != nil {
			return nil, e.err
		}
		results[i] = e.res
		if series != nil {
			series[i] = &obs.Series{Label: cell + "/" + labels[i], Every: c.Obs.Intervals, Points: e.points}
		}
	}
	c.observe(cell, labels, hits, results, series, time.Since(start))
	return results, nil
}

// runClaimed simulates the claimed specs in one pass over the trace —
// the cached benchmark slice or a fresh algo stream — and publishes
// their entries.
func (c *Context) runClaimed(cell, name string, specs []predictor.Spec, labels []string, claimed []int, entries []*memoEntry, opts sim.Options) error {
	src, err := c.source(name)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	preds := make([]predictor.Predictor, len(claimed))
	runLabels := make([]string, len(claimed))
	for j, i := range claimed {
		p, err := specs[i].New()
		if err != nil {
			return err
		}
		preds[j], runLabels[j] = p, labels[i]
	}
	results, series, err := c.simulate(cell, runLabels, src, preds, opts)
	if err != nil {
		return err
	}
	for j, i := range claimed {
		e := entries[i]
		e.res = results[j]
		if series != nil {
			e.points = series[j].Points
		}
		close(e.done)
	}
	return nil
}

// specOf parses a spec literal of the experiment tables; they are
// constants, so a parse error is a programming error.
func specOf(text string) predictor.Spec {
	s, err := predictor.ParseSpec(text)
	if err != nil {
		panic(err)
	}
	return s
}
