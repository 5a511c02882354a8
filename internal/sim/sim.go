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
	// Segments controls how one run spreads over cores. 0 is
	// automatic: a run of at least two work units (a bitsliced group or
	// one ungrouped cell each) drains every staged block cell-parallel
	// on up to GOMAXPROCS goroutines, provided no two cells can share
	// mutable state (every predictor has a Spec and appears once);
	// any other run — a single predictor, or 64 same-shape cells that
	// form one bitsliced group — takes the serial path. 1 (or
	// negative) forces the fully serial path. Values >= 2 force the
	// segmented engine with that many segments (capped at 64 and at the
	// branch count; see segment.go). Results are bit-identical to
	// serial in every case; ineligible predictors degrade to the serial
	// path.
	Segments int
	// WarmBranches is the speculative warm-up window of the segmented
	// path: each segment replica pre-runs this many branches of the
	// preceding segment before its boundary convergence check. Zero
	// means the 4096-branch default.
	WarmBranches int
	// NoBitslice disables the 64-lane bitsliced group path that RunMany
	// otherwise uses when at least 8 2-bit cells share one index
	// function (same family and geometry; the skewed update policy may
	// differ). Cells of different geometry always run their scalar
	// kernels. Results are identical either way; the flag exists for
	// benchmarking the group path against per-cell kernels.
	NoBitslice bool
	// Recorder, when non-nil, receives per-predictor (conditionals,
	// mispredictions) deltas at block granularity, building the
	// warmup/steady-state interval curves of the run. Cell i of the
	// recorder corresponds to preds[i]. Recording happens outside the
	// per-branch loops (once per predictor per drained block), so it
	// does not perturb the compiled-kernel fast path.
	Recorder *obs.Recorder
}

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
	grouped    bool // p is a lane of a bitsliced group
	mask       uint64
	mispredict int
	firstUse   int
}

// cellGroup is a 64-lane bitsliced kernel shared by up to 64 cells
// with one index function; cells[j] is lane j's cell index and mis is
// the per-lane scratch, reset each drain.
type cellGroup struct {
	g     *kernel.Group64
	cells []int
	mis   []int
}

// workUnit is one independently drainable piece of a block: a
// bitsliced group, or (group nil) the ungrouped cell at index cell.
type workUnit struct {
	group *cellGroup
	cell  int
}

// Bitsliced-group telemetry: groups formed per run and lanes they
// absorbed from the per-cell path.
var (
	mGroups     = obs.NewCounter("sim.bitslice.groups")
	mGroupLanes = obs.NewCounter("sim.bitslice.lanes")
)

// mParRuns counts runs that drained their blocks on several goroutines.
var mParRuns = obs.NewCounter("sim.par.runs")

// Path provenance: once per cell per run, the path that stepped it — a
// bitsliced group lane, a compiled kernel (serial, cell-parallel or
// segmented), the fused Stepper or the generic Predict/Update pair —
// plus cellpar for every cell of a cell-parallel run.
var (
	mPathGroup   = obs.NewCounter("sim.path.group")
	mPathKernel  = obs.NewCounter("sim.path.kernel")
	mPathStepper = obs.NewCounter("sim.path.stepper")
	mPathGeneric = obs.NewCounter("sim.path.generic")
	mPathCellPar = obs.NewCounter("sim.path.cellpar")
)

// minGroupLanes is the grouping threshold: below 8 lanes the transpose
// overhead of the bitsliced path is not worth it over per-cell kernels.
const minGroupLanes = 8

// groupCells forms bitsliced groups over kernel-compiled cells that
// share one index function (equal kernel.LaneKey), the transposed
// uniform layout. Same-kind cells of different geometry stay on their
// scalar kernels: a mixed group gathers one byte per lane per step and
// runs slower than the lanes' own kernels. Grouped cells keep their
// scalar kernels, so Invalidate still works.
func groupCells(r *manyRunner, preds []predictor.Predictor, hists []uint) {
	byKey := map[kernel.LaneKey][]int{}
	var keys []kernel.LaneKey // first-seen order, so group order is deterministic
	for i := range r.cells {
		c := &r.cells[i]
		if c.kern == nil {
			continue
		}
		if key, ok := kernel.LaneKey64(c.kern); ok {
			if _, seen := byKey[key]; !seen {
				keys = append(keys, key)
			}
			byKey[key] = append(byKey[key], i)
		}
	}
	for _, key := range keys {
		idx := byKey[key]
		for len(idx) >= minGroupLanes {
			n := min(len(idx), kernel.MaxLanes)
			lanePreds := make([]predictor.Predictor, n)
			laneHists := make([]uint, n)
			for j, ci := range idx[:n] {
				lanePreds[j] = preds[ci]
				laneHists[j] = hists[ci]
			}
			g, ok := kernel.CompileGroup64(lanePreds, laneHists)
			if !ok {
				break
			}
			cg := &cellGroup{g: g, cells: idx[:n:n], mis: make([]int, n)}
			r.groups = append(r.groups, cg)
			for _, ci := range cg.cells {
				r.cells[ci].grouped = true
			}
			mGroups.Inc()
			mGroupLanes.Add(int64(n))
			idx = idx[n:]
		}
	}
}

// manyRunner drives several predictors over one decoding of a trace.
// It owns a single history register of the longest length any predictor
// consumes; each predictor sees that register masked to its own length,
// which is exactly the value a dedicated register of that length would
// hold, so per-predictor results are bit-identical to sequential Run.
//
// Events are staged: conditional branches accumulate into steps (with
// the raw shared-register history value at each branch) and are
// drained to every work unit a block at a time. Because cells never
// interact, per-cell block processing preserves each cell's exact
// per-branch order, and the units of one block may run in any order —
// or concurrently (see startWorkers).
type manyRunner struct {
	cells  []manyCell
	groups []*cellGroup
	units  []workUnit
	delta  []int // per-cell mispredicts of the block being drained
	rec    *obs.Recorder
	// stager stages the trace into steps; its event counts are shared
	// by every cell (identical across predictors by construction).
	stager

	// Cell-parallel drain (nil start when serial): workers-1 parked
	// goroutines take one start token per block, claim units through
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
	hists := make([]uint, len(preds))
	for i, p := range preds {
		k := opts.HistoryBits
		if k == 0 {
			k = p.HistoryBits()
		}
		if k > maxK {
			maxK = k
		}
		hists[i] = k
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
	if !opts.NoKernel && !opts.NoBitslice {
		groupCells(r, preds, hists)
	}
	// Groups first: they are the largest units, so claiming them early
	// shortens the tail of a cell-parallel block.
	for _, g := range r.groups {
		r.units = append(r.units, workUnit{group: g})
	}
	for i := range r.cells {
		if !r.cells[i].grouped {
			r.units = append(r.units, workUnit{cell: i})
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
				r.claimUnits()
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

// claimUnits drains units of the current block until none is left.
func (r *manyRunner) claimUnits() {
	for {
		u := int(r.next.Add(1)) - 1
		if u >= len(r.units) {
			return
		}
		r.runUnit(&r.units[u])
	}
}

// stepsFull drains the full step buffer.
func (r *manyRunner) stepsFull() { r.drain() }

// flushNow trains every cell up to the flush boundary, exactly as the
// per-event path would, then wipes predictor state.
func (r *manyRunner) flushNow() {
	r.drain()
	for j := range r.cells {
		r.cells[j].p.Reset()
	}
	for _, g := range r.groups {
		// Uniform bitsliced groups own their counter planes;
		// re-transpose the freshly reset lane tables into them.
		g.g.Reload()
	}
}

// drain runs the staged steps through every work unit — concurrently
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
		r.claimUnits()
		for w := 1; w < r.workers; w++ {
			<-r.done
		}
	} else {
		for u := range r.units {
			r.runUnit(&r.units[u])
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

// runUnit steps one work unit through the staged block and stores each
// of its cells' mispredicts in r.delta. It touches only the unit's own
// cells, so distinct units may run concurrently.
func (r *manyRunner) runUnit(u *workUnit) {
	if g := u.group; g != nil {
		// One bitsliced pass steps every lane through the block.
		clear(g.mis)
		g.g.StepBatch64(r.steps, g.mis)
		for j, ci := range g.cells {
			r.delta[ci] = g.mis[j]
		}
		return
	}
	c := &r.cells[u.cell]
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
	r.delta[u.cell] = mis
}

// finish drains the tail block and invalidates any predictor read
// state the kernels bypassed, so the predictors serve interface calls
// correctly after the run.
func (r *manyRunner) finish() {
	r.drain()
	for _, g := range r.groups {
		// Publish uniform groups' owned planes back into the lane
		// predictors before anyone reads them through the interface.
		g.g.Writeback()
	}
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
		case c.grouped:
			mPathGroup.Inc()
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
	if err := r.stageSource(src, r); err != nil {
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
// With automatic segmentation (Options.Segments 0), a run of at least
// two work units whose predictors cannot share state drains each block
// cell-parallel on up to GOMAXPROCS goroutines: exact by construction,
// since cells never interact. Any other auto run is serial; only an
// explicit Segments >= 2 reaches the segmented engine.
func RunMany(src trace.Source, preds []predictor.Predictor, opts Options) ([]Result, error) {
	if len(preds) == 0 {
		return nil, nil
	}
	var r *manyRunner
	if opts.Segments == 0 && len(preds) > 1 && cellParallelSafe(preds) {
		r = newManyRunner(preds, opts)
		if workers := min(runtime.GOMAXPROCS(0), len(r.units)); workers >= 2 {
			r.startWorkers(workers)
			defer r.stopWorkers()
			return r.run(src)
		}
	}
	if k, hists, orig, ok := segPlan(preds, opts); ok {
		// Segment-parallel path: stage the trace once, run contiguous
		// segments concurrently, reconcile at the boundaries. Results
		// are bit-identical to the serial path below (see segment.go).
		st, err := stageTrace(src, opts, maskFromHists(hists))
		if err != nil {
			return nil, err
		}
		res := runSegmentedMany(st, preds, hists, orig, opts, k, true)
		st.release()
		mPathKernel.Add(int64(len(preds)))
		return res, nil
	}
	if r == nil {
		r = newManyRunner(preds, opts)
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
