package experiments

import (
	"fmt"
	"sync"
	"time"

	"gskew/internal/obs"
	"gskew/internal/predictor"
	"gskew/internal/sim"
	"gskew/internal/trace"
)

// RunObs collects run telemetry for an experiments invocation: interval
// misprediction curves for every simulation cell, per-cell manifest
// entries, and live progress lines. All of it is opt-in — a Context
// with a nil Obs (the default) runs every cell exactly as before, and
// stdout-rendered results are byte-identical either way.
//
// A RunObs is safe for concurrent use; cells running on different
// scheduler workers append under its lock.
type RunObs struct {
	// Intervals is the interval length, in counted conditionals, of the
	// per-cell misprediction curves. Zero disables curve capture.
	Intervals int
	// Progress, when non-nil, receives one completion line per
	// simulation cell.
	Progress *obs.Progress
	// Manifest, when non-nil, accumulates one Cell per simulation cell
	// with its predictors, conditional count and wall time.
	Manifest *obs.Manifest

	mu     sync.Mutex
	series []*obs.Series
}

// Series returns the interval curves captured so far, one per
// (cell, predictor) pair, in cell completion order.
func (o *RunObs) Series() []*obs.Series {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]*obs.Series, len(o.series))
	copy(out, o.series)
	return out
}

func (o *RunObs) addSeries(s []*obs.Series) {
	o.mu.Lock()
	o.series = append(o.series, s...)
	o.mu.Unlock()
}

// addCell appends a manifest cell; obs.Manifest itself is not
// synchronised.
func (o *RunObs) addCell(c obs.Cell) {
	o.mu.Lock()
	o.Manifest.AddCell(c)
	o.mu.Unlock()
}

// specLabel names a predictor for telemetry: its canonical Spec string
// when it has one, its String form otherwise (hybrids, custom tables).
func specLabel(p predictor.Predictor) string {
	if sp, ok := p.(predictor.Speccer); ok {
		return sp.Spec().String()
	}
	return fmt.Sprintf("%v", p)
}

// RunMany is the observed version of sim.RunMany: identical results,
// with the context's RunObs (when set) capturing the cell's interval
// curves, manifest entry and progress line. cell names the simulation
// cell, conventionally "<experiment>/<benchmark>". src is consumed:
// a trace derived for one cell (a workload.Take over a reseeded
// generator) streams through it without being collected.
//
// RunMany always simulates. Cells whose predictors all come from
// specs and whose trace comes from Trace should use RunSpecs, which
// simulates each distinct cell once per Context.
func (c *Context) RunMany(cell string, src trace.Source, preds []predictor.Predictor, opts sim.Options) ([]sim.Result, error) {
	var labels []string
	if c.Obs != nil {
		labels = make([]string, len(preds))
		for i, p := range preds {
			labels[i] = specLabel(p)
		}
	}
	start := time.Now()
	results, series, err := c.simulate(cell, labels, src, preds, opts)
	if err != nil {
		return nil, err
	}
	c.observe(cell, labels, nil, results, series, time.Since(start))
	return results, nil
}

// simulate runs one cell through sim.RunMany with the context-wide
// defaults applied. When the context records interval curves, labels
// (one per predictor) name them and the curves are returned in
// predictor order.
func (c *Context) simulate(cell string, labels []string, src trace.Source, preds []predictor.Predictor, opts sim.Options) ([]sim.Result, []*obs.Series, error) {
	if opts.Segments == 0 {
		// Cells that did not pick their own execution inherit the
		// context-wide default (-segments).
		opts.Segments = c.Segments
	}
	var rec *obs.Recorder
	if o := c.Obs; o != nil && o.Intervals > 0 {
		full := make([]string, len(labels))
		for i, l := range labels {
			full[i] = cell + "/" + l
		}
		rec = obs.NewRecorder(o.Intervals, full...)
		opts.Recorder = rec
	}
	results, err := sim.RunMany(src, preds, opts)
	if err != nil || rec == nil {
		return results, nil, err
	}
	return results, rec.Series(), nil
}

// observe hands a finished cell to the context's RunObs: its curves,
// its manifest entry (memo marking which predictors were memo hits,
// nil when none could be) and its progress line. A no-op without Obs.
func (c *Context) observe(cell string, labels []string, memo []bool, results []sim.Result, series []*obs.Series, took time.Duration) {
	o := c.Obs
	if o == nil {
		return
	}
	if series != nil {
		o.addSeries(series)
	}
	if o.Manifest != nil {
		conds := 0
		if len(results) > 0 {
			conds = results[0].Conditionals
		}
		o.addCell(obs.Cell{
			ID:           cell,
			Predictors:   labels,
			MemoHits:     memo,
			Conditionals: conds,
			WallMS:       float64(took.Nanoseconds()) / float64(time.Millisecond),
			Result:       results,
		})
	}
	if o.Progress != nil {
		o.Progress.Done(cell, took)
	}
}
