// Package experiments regenerates every table and figure of the
// paper's evaluation. Each experiment has a stable id (table1, table2,
// fig1 ... fig12, ablation-*), produces a Renderable result, and is
// indexed in DESIGN.md; EXPERIMENTS.md records the paper-vs-measured
// comparison for each.
//
// Experiments share a Context, which caches materialised workload
// traces so that a full `cmd/experiments -all` run generates each
// benchmark trace once, and memoises simulated cells so that each
// distinct (trace, predictor spec, options) cell is simulated once.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"gskew/internal/report"
	"gskew/internal/trace"
	"gskew/internal/tracepool"
	"gskew/internal/workload"
)

// Renderable is anything an experiment can return; report.Table and
// report.Figure both satisfy it.
type Renderable interface {
	WriteText(io.Writer) error
	WriteCSV(io.Writer) error
}

// Bundle groups several Renderables (e.g. one figure per benchmark)
// under a common title.
type Bundle struct {
	Title string
	Items []Renderable
}

// Add appends an item and returns the bundle.
func (b *Bundle) Add(r Renderable) *Bundle {
	b.Items = append(b.Items, r)
	return b
}

// WriteText implements Renderable.
func (b *Bundle) WriteText(w io.Writer) error {
	if b.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n\n", b.Title); err != nil {
			return err
		}
	}
	for i, item := range b.Items {
		if i > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if err := item.WriteText(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV implements Renderable by concatenating the items' CSV
// blocks separated by blank lines.
func (b *Bundle) WriteCSV(w io.Writer) error {
	for i, item := range b.Items {
		if i > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if err := item.WriteCSV(w); err != nil {
			return err
		}
	}
	return nil
}

// Context carries run-wide configuration, the benchmark-trace cache,
// the memo of simulated cells (see RunSpecs) and the scheduler that
// bounds concurrent simulation cells.
//
// A Context is safe for concurrent use: any number of goroutines may
// call Trace, BenchmarkNames and the experiment Run functions
// simultaneously. The trace cache guarantees each benchmark trace is
// generated exactly once per Context, even under contention (per-key
// sync.Once); concurrent callers for a benchmark being generated block
// until it is ready and then share the same immutable slice.
type Context struct {
	// Scale is the workload scale factor (see workload.Config). The
	// zero value selects DefaultScale, sized so a full -all run
	// completes in minutes.
	Scale float64
	// SeedOffset perturbs workload seeds for variance studies.
	SeedOffset uint64
	// Benchmarks restricts the suite (nil = all six).
	Benchmarks []string
	// Sched bounds the concurrent (experiment, benchmark) simulation
	// cells of this context. Nil selects a default GOMAXPROCS-wide
	// scheduler on first use; NewSched(1) forces fully serial runs.
	Sched *Sched
	// Segments is the default execution of every simulation cell
	// driven through Context.RunMany (sim.Options.Segments: 0 auto,
	// 1 serial; results are bit-identical either way). It applies only
	// to cells that did not set their own; 0 leaves the simulator's
	// auto default in place.
	Segments int
	// Obs, when non-nil, collects run telemetry (interval curves,
	// manifest cells, progress lines) from every simulation cell driven
	// through Context.RunMany. Nil — the default — is zero-overhead.
	Obs *RunObs
	// Pool, when non-nil, backs Trace with the content-addressed trace
	// segment pool: a benchmark whose (name, scale, seed) identity is
	// already pooled is decoded from its columnar blob instead of
	// regenerated, and fresh materialisations are written through, so
	// repeated experiment runs sharing a -trace-pool directory (or a
	// pool shared with the HTTP service) skip workload generation.
	// Recorded algorithms (algo: specs) stream and never touch it.
	Pool *tracepool.Pool

	schedOnce    sync.Once
	defaultSched *Sched

	mu    sync.Mutex
	cache map[string]*traceEntry

	memoMu   sync.Mutex
	memo     map[memoKey]*memoEntry
	profiles map[profileKey]*profileEntry
}

// traceEntry is one per-benchmark cache slot. The once gates
// generation so the map lock is never held while materialising.
type traceEntry struct {
	once     sync.Once
	branches []trace.Branch
	err      error
}

// DefaultScale for experiment runs: 10% of the paper's dynamic lengths,
// i.e. 570k-2.1M conditional branches per benchmark — large enough to
// exercise every table size under study, small enough to sweep.
const DefaultScale = 0.1

// NewContext returns a Context with the given scale (0 = DefaultScale).
func NewContext(scale float64) *Context {
	return &Context{Scale: scale}
}

func (c *Context) scale() float64 {
	if c.Scale <= 0 {
		return DefaultScale
	}
	return c.Scale
}

// BenchmarkNames returns the benchmark suite this context runs.
func (c *Context) BenchmarkNames() []string {
	if len(c.Benchmarks) > 0 {
		return c.Benchmarks
	}
	return workload.Names()
}

// Trace returns the materialised trace for a workload — a benchmark
// name or a recorded-algorithm spec ("algo:...").
//
// A benchmark trace is generated on first use and cached: the six
// benchmark traces are shared by most experiments, and they are the
// only traces the cache holds. It is safe for concurrent use: per-key
// sync.Once guarantees each benchmark trace is generated exactly once
// per Context even when many goroutines race for it, and the map lock
// is never held during generation, so distinct benchmarks materialise
// concurrently.
//
// An algo spec is recorded afresh on every call, bypassing the cache
// and the pool: each experiment reads such a stream once or twice, and
// streams it instead (see source), since re-recording costs less than
// holding the stream or reading it back from the pool.
func (c *Context) Trace(name string) ([]trace.Branch, error) {
	if workload.IsAlgo(name) {
		return workload.MaterializeAny(name, c.workloadConfig())
	}
	c.mu.Lock()
	if c.cache == nil {
		c.cache = make(map[string]*traceEntry)
	}
	e := c.cache[name]
	if e == nil {
		e = &traceEntry{}
		c.cache[name] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		poolKey := c.traceID(name)
		if c.Pool != nil {
			if branches, _, ok := c.Pool.GetNamed(poolKey); ok {
				e.branches = branches
				return
			}
		}
		e.branches, e.err = workload.MaterializeAny(name, c.workloadConfig())
		if e.err == nil && c.Pool != nil {
			// Write-through; a pool failure only costs re-materialisation
			// on the next run.
			c.Pool.PutNamed(poolKey, e.branches)
		}
	})
	return e.branches, e.err
}

// source returns workload name as a trace.Source for one simulation
// pass: the cached benchmark trace, or for an algo spec a fresh
// algotrace.Stream, which the simulator consumes block by block while
// the algorithm runs, so the stream is never held.
func (c *Context) source(name string) (trace.Source, error) {
	if workload.IsAlgo(name) {
		return workload.OpenAny(name, c.workloadConfig())
	}
	branches, err := c.Trace(name)
	if err != nil {
		return nil, err
	}
	return trace.NewSliceSource(branches), nil
}

func (c *Context) workloadConfig() workload.Config {
	return workload.Config{Scale: c.scale(), SeedOffset: c.SeedOffset}
}

// traceID is the identity of a workload's trace in this Context, the
// (name, scale, seed) triple Trace materialises it from. It keys the
// trace pool (benchmarks only) and the simulation-cell memo.
func (c *Context) traceID(name string) string {
	if workload.IsAlgo(name) {
		// Scale does not apply to recorded algorithms, so it is not
		// part of their identity.
		return fmt.Sprintf("%s|%d", name, c.SeedOffset)
	}
	return fmt.Sprintf("%s|%g|%d", name, c.scale(), c.SeedOffset)
}

// DropTrace evicts a cached trace (memory control for long sweeps).
// Callers must not hold references handed out before the eviction if
// they expect the memory to be reclaimed.
func (c *Context) DropTrace(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.cache, name)
}

// sched returns the context's scheduler, defaulting to a
// GOMAXPROCS-wide pool created on first use.
func (c *Context) sched() *Sched {
	if c.Sched != nil {
		return c.Sched
	}
	c.schedOnce.Do(func() { c.defaultSched = NewSched(0) })
	return c.defaultSched
}

// mapBenchmarks runs fn once per benchmark in the context's suite as
// independent scheduler cells and delivers the results in suite order
// regardless of completion order, so rendered output is deterministic.
// Each fn call works on its own predictors over the shared immutable
// trace.
func mapBenchmarks[T any](c *Context, fn func(name string, branches []trace.Branch) (T, error)) ([]T, error) {
	names := c.BenchmarkNames()
	results := make([]T, len(names))
	err := c.sched().Map(len(names), func(i int) error {
		branches, err := c.Trace(names[i])
		if err != nil {
			return fmt.Errorf("%s: %w", names[i], err)
		}
		r, err := fn(names[i], branches)
		if err != nil {
			return fmt.Errorf("%s: %w", names[i], err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// forEachBenchmark is mapBenchmarks specialised to Renderable results,
// the common shape of per-benchmark figures and tables.
func (c *Context) forEachBenchmark(fn func(name string, branches []trace.Branch) (Renderable, error)) ([]Renderable, error) {
	return mapBenchmarks(c, fn)
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	// ID is the stable identifier, e.g. "fig5".
	ID string
	// Title is a human-readable one-liner.
	Title string
	// Paper describes what the original paper shows in this artifact.
	Paper string
	// Run produces the result.
	Run func(*Context) (Renderable, error)
}

var registry []Experiment

func register(e Experiment) {
	registry = append(registry, e)
}

// All returns every registered experiment, sorted by ID with tables
// first, then figures in numeric order, then ablations.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return orderKey(out[i].ID) < orderKey(out[j].ID) })
	return out
}

// orderKey makes table1 < table2 < fig1 < ... < fig12 < ablation-*.
func orderKey(id string) string {
	var group byte
	var num int
	switch {
	case len(id) > 5 && id[:5] == "table":
		group = 'a'
		fmt.Sscanf(id[5:], "%d", &num)
	case len(id) > 3 && id[:3] == "fig":
		group = 'b'
		fmt.Sscanf(id[3:], "%d", &num)
	default:
		group = 'c'
	}
	return fmt.Sprintf("%c%03d%s", group, num, id)
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, len(registry))
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}

// WritePlot renders a result as ASCII charts where possible: figures
// are plotted, tables fall back to aligned text, bundles recurse.
func WritePlot(w io.Writer, r Renderable) error {
	switch v := r.(type) {
	case *report.Figure:
		return v.WritePlot(w, report.PlotOptions{})
	case *Bundle:
		if v.Title != "" {
			if _, err := fmt.Fprintf(w, "%s\n\n", v.Title); err != nil {
				return err
			}
		}
		for i, item := range v.Items {
			if i > 0 {
				if _, err := io.WriteString(w, "\n"); err != nil {
					return err
				}
			}
			if err := WritePlot(w, item); err != nil {
				return err
			}
		}
		return nil
	default:
		return r.WriteText(w)
	}
}
