// Package sim drives predictors over branch traces and aggregates
// misprediction statistics, implementing the paper's measurement
// methodology: the global-history register includes unconditional
// branches; only conditional branches are predicted and counted; and
// (optionally, for ideal-table experiments) first uses of a substream
// are excluded from the misprediction count.
//
// The runner is batched: trace events arrive in blocks (trace.Blocks:
// pulled through trace.BatchSource, or pushed by a trace.Producer such
// as a recorded algorithm, which is never held whole), conditional branches
// are staged into a buffer of (PC, history, outcome) steps, and each
// predictor consumes whole blocks at a time. Predictors whose
// organisation internal/kernel recognizes are driven through a
// compiled kernel — one interface call per block instead of two per
// branch — and everything else falls back to the generic
// Predict/Update (or fused Step) path. Both paths are bit-identical by
// construction: kernels share the predictor's own counter storage and
// are checked against the executable paper specification by cmd/verify.
package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"gskew/internal/kernel"
	"gskew/internal/obs"
	"gskew/internal/predictor"
	"gskew/internal/trace"
)

// Package-level run telemetry, registered in the default obs registry.
// The counters are only mutated at block granularity (every batchSize
// conditionals), so the hot step loops stay untouched; when metrics
// are disabled (the default) each Add is a single atomic load.
var (
	mBlocks      = obs.NewCounter("sim.blocks")
	mSteps       = obs.NewCounter("sim.steps")
	mMispredicts = obs.NewCounter("sim.mispredicts")
)

// Result aggregates one simulation run.
type Result struct {
	// Conditionals is the number of conditional branches predicted.
	Conditionals int
	// Mispredicts is the number of counted mispredictions.
	Mispredicts int
	// FirstUses is the number of conditional references excluded from
	// counting because the predictor had never seen the substream
	// (only nonzero when SkipFirstUse is set and the predictor tracks
	// first uses).
	FirstUses int
	// Unconditionals is the number of history-only events processed.
	Unconditionals int
	// Flushes is how many times the predictor state was flushed
	// (see Options.FlushEvery).
	Flushes int
}

// MissRate returns mispredictions per counted conditional branch.
// Following the paper's Table 2 accounting, excluded first uses stay
// in the denominator (they are dynamic conditional branches that were
// not counted as mispredictions).
func (r Result) MissRate() float64 {
	if r.Conditionals == 0 {
		return 0
	}
	return float64(r.Mispredicts) / float64(r.Conditionals)
}

// MissPercent returns MissRate x 100, as the paper's figures plot.
func (r Result) MissPercent() float64 { return 100 * r.MissRate() }

// String renders the result compactly.
func (r Result) String() string {
	return fmt.Sprintf("cond=%d mispred=%d (%.2f%%)", r.Conditionals, r.Mispredicts, r.MissPercent())
}

// Options adjusts a run.
type Options struct {
	// SkipFirstUse excludes first-time (address, history) references
	// from the misprediction count, if the predictor implements
	// predictor.FirstUseTracker. Used for unaliased-table experiments
	// (Table 2) per the paper's methodology.
	SkipFirstUse bool
	// HistoryBits overrides the history register length. Zero means
	// use the predictor's own HistoryBits.
	HistoryBits uint
	// FlushEvery, when positive, resets the predictor (and the history
	// register) every FlushEvery conditional branches — modelling the
	// total predictor-state loss of a context switch in a processor
	// that does not preserve predictor state across processes (the
	// regime studied by Evers et al., the paper's reference [4]).
	FlushEvery int
	// NoKernel disables the compiled-kernel fast path, forcing every
	// predictor through its generic interface methods. Results are
	// identical either way; the flag exists for benchmarking the two
	// paths against each other and for differential tests.
	NoKernel bool
	// Segments selects how one run uses cores. 0 is automatic: a run
	// of at least two cells drains every staged block cell-parallel on
	// up to GOMAXPROCS goroutines, provided no two cells can share
	// mutable state (every predictor has a Spec and appears once); any
	// other run takes the serial path. 1 (or negative) forces the
	// serial path. Results are bit-identical either way. Any other
	// value is rejected with ErrSegments.
	Segments int
	// NoBitslice has no effect: every cell runs on its own kernel. The
	// field stays for callers that still set it.
	NoBitslice bool
	// Recorder, when non-nil, receives per-predictor (conditionals,
	// mispredictions) deltas at block granularity, building the
	// warmup/steady-state interval curves of the run. Cell i of the
	// recorder corresponds to preds[i]. Recording happens outside the
	// per-branch loops (once per predictor per drained block), so it
	// does not perturb the compiled-kernel fast path.
	Recorder *obs.Recorder
}

// ErrSegments is returned by Run and RunMany for Options.Segments >= 2:
// a run is serial (1) or automatic (0), never split in time.
var ErrSegments = errors.New("sim: Options.Segments must be 0 (auto) or 1 (serial)")

// batchSize is the capacity of the staged conditional-step buffer
// (trace records arrive in trace.Blocks' blocks). 4096 steps keep
// the buffer (100KB) comfortably cache-resident while amortising the
// per-block bookkeeping to nothing.
const batchSize = 4096

// Run streams src through p and returns the aggregate result. The
// history register is owned by the runner so that every predictor
// organisation observes the identical stream.
func Run(src trace.Source, p predictor.Predictor, opts Options) (Result, error) {
	results, err := RunMany(src, []predictor.Predictor{p}, opts)
	if err != nil {
		return Result{}, err
	}
	return results[0], nil
}

// RunBranches is Run over an in-memory trace.
func RunBranches(branches []trace.Branch, p predictor.Predictor, opts Options) (Result, error) {
	return Run(trace.NewSliceSource(branches), p, opts)
}

// manyCell is the per-predictor state of a RunMany pass. Only the
// counts that differ between predictors live here; the event counts
// (conditionals, unconditionals, flushes) are identical across cells
// by construction and are tracked once in the runner.
type manyCell struct {
	p          predictor.Predictor
	kern       kernel.Kernel     // non-nil when p compiled to a kernel
	stepper    predictor.Stepper // non-nil when p has the fused fast path
	tracker    predictor.FirstUseTracker
	mask       uint64
	mispredict int
	firstUse   int
}

// mParRuns counts runs that drained their blocks on several goroutines.
var mParRuns = obs.NewCounter("sim.par.runs")

// Path provenance: once per cell per run, the path that stepped it — a
// compiled kernel, the fused Stepper or the generic Predict/Update
// pair — plus cellpar for every cell of a cell-parallel run.
var (
	mPathKernel  = obs.NewCounter("sim.path.kernel")
	mPathStepper = obs.NewCounter("sim.path.stepper")
	mPathGeneric = obs.NewCounter("sim.path.generic")
	mPathCellPar = obs.NewCounter("sim.path.cellpar")
)

// manyRunner drives several predictors over one decoding of a trace.
// It owns a single history register of the longest length any predictor
// consumes; each predictor sees that register masked to its own length,
// which is exactly the value a dedicated register of that length would
// hold, so per-predictor results are bit-identical to sequential Run.
//
// Events are staged: conditional branches accumulate into steps (with
// the raw shared-register history value at each branch) and are
// drained to every cell a block at a time. Because cells never
// interact, per-cell block processing preserves each cell's exact
// per-branch order, and the cells of one block may run in any order —
// or concurrently (see startWorkers).
type manyRunner struct {
	cells []manyCell
	delta []int // per-cell mispredicts of the block being drained
	rec   *obs.Recorder
	// stager stages the trace into steps; its event counts are shared
	// by every cell (identical across predictors by construction).
	stager

	// Cell-parallel drain (nil start when serial): workers-1 parked
	// goroutines take one start token per block, claim cells through
	// next, and report on done; exited counts them out at stop.
	workers int
	next    atomic.Int64
	start   chan struct{}
	done    chan struct{}
	exited  sync.WaitGroup
}

func newManyRunner(preds []predictor.Predictor, opts Options) *manyRunner {
	r := &manyRunner{
		cells: make([]manyCell, len(preds)),
		delta: make([]int, len(preds)),
		rec:   opts.Recorder,
		stager: stager{
			steps: make([]kernel.Step, 0, batchSize),
			flush: opts.FlushEvery,
		},
	}
	var maxK uint
	for i, p := range preds {
		k := opts.HistoryBits
		if k == 0 {
			k = p.HistoryBits()
		}
		if k > maxK {
			maxK = k
		}
		c := &r.cells[i]
		c.p = p
		c.stepper, _ = p.(predictor.Stepper)
		c.mask = uint64(1)<<k - 1
		if t, ok := p.(predictor.FirstUseTracker); ok && opts.SkipFirstUse {
			c.tracker = t
		}
		if !opts.NoKernel && c.tracker == nil {
			// The kernel was compiled against this cell's register
			// length, so it masks the shared raw history itself.
			c.kern, _ = kernel.Compile(p, k)
		}
	}
	r.ghrMask = uint64(1)<<maxK - 1
	return r
}

// cellParallelSafe reports whether preds can be drained concurrently:
// no two cells may share mutable state. Every predictor must describe
// itself by a Spec (so it owns its tables; hybrids may wrap components
// another cell also steps) and appear once.
func cellParallelSafe(preds []predictor.Predictor) bool {
	seen := make(map[predictor.Predictor]bool, len(preds))
	for _, p := range preds {
		if _, ok := p.(predictor.Speccer); !ok || reflect.TypeOf(p).Kind() != reflect.Pointer || seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}

// startWorkers parks workers-1 goroutines that help drain every block.
// Starting them once per run keeps the per-block cost at two channel
// operations per worker and no allocation. stopWorkers must follow.
func (r *manyRunner) startWorkers(workers int) {
	r.workers = workers
	// Both channels carry one token per helper per block, so a block's
	// sends never block.
	r.start = make(chan struct{}, workers-1)
	r.done = make(chan struct{}, workers-1)
	r.exited.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer r.exited.Done()
			for range r.start {
				r.claimCells()
				r.done <- struct{}{}
			}
		}()
	}
	mParRuns.Inc()
}

// stopWorkers releases the parked goroutines and waits for them to
// exit; a no-op for serial runs.
func (r *manyRunner) stopWorkers() {
	if r.start != nil {
		close(r.start)
		r.exited.Wait()
	}
}

// claimCells drains cells of the current block until none is left.
func (r *manyRunner) claimCells() {
	for {
		i := int(r.next.Add(1)) - 1
		if i >= len(r.cells) {
			return
		}
		r.runCell(i)
	}
}

// flushNow trains every cell up to the flush boundary, exactly as the
// per-event path would, then wipes predictor state.
func (r *manyRunner) flushNow() {
	r.drain()
	for j := range r.cells {
		r.cells[j].p.Reset()
	}
}

// drain runs the staged steps through every cell — concurrently
// when workers are running — then applies the per-cell deltas, the
// recorder and the counters in cell order, and empties the buffer.
func (r *manyRunner) drain() {
	if len(r.steps) == 0 {
		return
	}
	mBlocks.Inc()
	mSteps.Add(int64(len(r.steps)))
	if r.start != nil {
		r.next.Store(0)
		for w := 1; w < r.workers; w++ {
			r.start <- struct{}{}
		}
		r.claimCells()
		for w := 1; w < r.workers; w++ {
			<-r.done
		}
	} else {
		for i := range r.cells {
			r.runCell(i)
		}
	}
	total := 0
	for i, d := range r.delta {
		r.cells[i].mispredict += d
		total += d
		if r.rec != nil {
			r.rec.Add(i, len(r.steps), d)
		}
	}
	mMispredicts.Add(int64(total))
	r.steps = r.steps[:0]
}

// runCell steps cell i through the staged block and stores its
// mispredicts in r.delta[i]. It touches only that cell, so distinct
// cells may run concurrently.
func (r *manyRunner) runCell(i int) {
	c := &r.cells[i]
	mis := 0
	switch {
	case c.kern != nil:
		// Compiled fast path: one call for the whole block.
		mis = c.kern.StepBatch(r.steps)
	case c.stepper != nil && c.tracker == nil:
		for j := range r.steps {
			s := &r.steps[j]
			if c.stepper.Step(s.PC, s.Hist&c.mask, s.Taken) != s.Taken {
				mis++
			}
		}
	default:
		for j := range r.steps {
			s := &r.steps[j]
			h := s.Hist & c.mask
			counted := true
			if c.tracker != nil && !c.tracker.Seen(s.PC, h) {
				c.firstUse++
				counted = false
			}
			if c.stepper != nil {
				// Fused fast path; Predict is state-free, so always
				// stepping is equivalent to predict-when-counted.
				if c.stepper.Step(s.PC, h, s.Taken) != s.Taken && counted {
					mis++
				}
			} else {
				if counted && c.p.Predict(s.PC, h) != s.Taken {
					mis++
				}
				c.p.Update(s.PC, h, s.Taken)
			}
		}
	}
	r.delta[i] = mis
}

// finish drains the tail block and invalidates any predictor read
// state the kernels bypassed, so the predictors serve interface calls
// correctly after the run.
func (r *manyRunner) finish() {
	r.drain()
	for i := range r.cells {
		if r.cells[i].kern != nil {
			kernel.Invalidate(r.cells[i].p)
		}
	}
}

func (r *manyRunner) results() []Result {
	out := make([]Result, len(r.cells))
	for i := range r.cells {
		out[i] = Result{
			Conditionals:   r.cond,
			Mispredicts:    r.cells[i].mispredict,
			FirstUses:      r.cells[i].firstUse,
			Unconditionals: r.uncond,
			Flushes:        r.flushes,
		}
	}
	return out
}

// countPaths records each cell's path in the sim.path counters.
func (r *manyRunner) countPaths() {
	for i := range r.cells {
		c := &r.cells[i]
		switch {
		case c.kern != nil:
			mPathKernel.Inc()
		case c.stepper != nil && c.tracker == nil:
			mPathStepper.Inc()
		default:
			mPathGeneric.Inc()
		}
	}
	if r.start != nil {
		mPathCellPar.Add(int64(len(r.cells)))
	}
}

// run streams src through the runner and returns the results.
func (r *manyRunner) run(src trace.Source) ([]Result, error) {
	r.countPaths()
	if err := r.stageSource(src); err != nil {
		return nil, err
	}
	r.finish()
	return r.results(), nil
}

// RunMany streams src once and drives every predictor per block,
// returning per-predictor results bit-identical to len(preds)
// sequential Run calls over the same trace. The trace is decoded once
// and a single history register (of the longest history any predictor
// consumes) is shared, so the cost of a sweep is one trace iteration
// plus the predictors' own work — O(events + predictors x events_cond)
// instead of O(predictors x events).
//
// With Options.Segments 0 (auto), a run of at least two cells whose
// predictors cannot share state drains each block cell-parallel on up
// to GOMAXPROCS goroutines: exact by construction, since cells never
// interact. Any other run is serial. Segments >= 2 returns ErrSegments.
func RunMany(src trace.Source, preds []predictor.Predictor, opts Options) ([]Result, error) {
	if opts.Segments >= 2 {
		return nil, ErrSegments
	}
	if len(preds) == 0 {
		return nil, nil
	}
	r := newManyRunner(preds, opts)
	if opts.Segments == 0 && len(preds) > 1 && cellParallelSafe(preds) {
		if workers := min(runtime.GOMAXPROCS(0), len(r.cells)); workers >= 2 {
			r.startWorkers(workers)
			defer r.stopWorkers()
		}
	}
	return r.run(src)
}

// RunManyBranches is RunMany over an in-memory trace.
func RunManyBranches(branches []trace.Branch, preds []predictor.Predictor, opts Options) ([]Result, error) {
	return RunMany(trace.NewSliceSource(branches), preds, opts)
}

// Compare runs the same in-memory trace through several predictors and
// returns per-predictor results in order. It is a single RunMany pass:
// the trace is decoded once and every predictor observes the identical
// history stream, with results bit-identical to per-predictor
// sequential runs.
func Compare(branches []trace.Branch, preds []predictor.Predictor, opts Options) ([]Result, error) {
	results, err := RunManyBranches(branches, preds, opts)
	if err != nil {
		return nil, fmt.Errorf("sim: comparing %d predictors: %w", len(preds), err)
	}
	return results, nil
}
