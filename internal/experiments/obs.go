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

// RunMany is the observed version of sim.RunManyBranches: identical
// results, with the context's RunObs (when set) capturing the cell's
// interval curves, manifest entry and progress line. cell names the
// simulation cell, conventionally "<experiment>/<benchmark>".
func (c *Context) RunMany(cell string, branches []trace.Branch, preds []predictor.Predictor, opts sim.Options) ([]sim.Result, error) {
	if opts.Segments == 0 {
		// Cells that did not pick their own split inherit the
		// context-wide segment-parallel default (-segments).
		opts.Segments = c.Segments
	}
	o := c.Obs
	if o == nil {
		return sim.RunManyBranches(branches, preds, opts)
	}
	var rec *obs.Recorder
	if o.Intervals > 0 {
		labels := make([]string, len(preds))
		for i, p := range preds {
			labels[i] = cell + "/" + specLabel(p)
		}
		rec = obs.NewRecorder(o.Intervals, labels...)
		opts.Recorder = rec
	}
	start := time.Now()
	results, err := sim.RunManyBranches(branches, preds, opts)
	took := time.Since(start)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		o.addSeries(rec.Series())
	}
	if o.Manifest != nil {
		specs := make([]string, len(preds))
		for i, p := range preds {
			specs[i] = specLabel(p)
		}
		conds := 0
		if len(results) > 0 {
			conds = results[0].Conditionals
		}
		o.addCell(obs.Cell{
			ID:           cell,
			Predictors:   specs,
			Conditionals: conds,
			WallMS:       float64(took.Nanoseconds()) / float64(time.Millisecond),
			Result:       results,
		})
	}
	if o.Progress != nil {
		o.Progress.Done(cell, took)
	}
	return results, nil
}
