// Package diff is the differential verification runner: it drives the
// optimized predictors of internal/predictor and the executable paper
// specification of internal/refmodel step-by-step over the same branch
// trace and hunts for any observable divergence.
//
// The unit of work is a Cell — one (predictor family, update policy,
// configuration) point. For each cell the runner checks every
// implementation path the simulator uses (the Predict/Update pair, the
// fused Stepper, and the compiled kernel of internal/kernel), over
// randomized traces drawn from three generators (the IBS-like workload
// suite, a raw cfg program walk, and a uniform-random adversarial
// stream). On divergence it ddmin-shrinks the trace to a minimal
// counterexample and reports the replayable seed and configuration.
package diff

import (
	"fmt"
	"io"

	"gskew/internal/cfg"
	"gskew/internal/history"
	"gskew/internal/kernel"
	"gskew/internal/predictor"
	"gskew/internal/refmodel"
	"gskew/internal/rng"
	"gskew/internal/trace"
	"gskew/internal/workload"
)

// Path identifies which of the simulator's implementation paths a
// check drives against the specification.
type Path int

const (
	// PathPair is the generic two-call path: Predict then Update.
	PathPair Path = iota
	// PathStep is the fused Stepper fast path.
	PathStep
	// PathKernel is the compiled kernel of internal/kernel.
	PathKernel
	// PathBatch64 is the 64-lane bitsliced group kernel, checked with
	// 8 independent lanes per step (2-bit cells only).
	PathBatch64
)

// Paths lists every implementation path, in check order.
func Paths() []Path {
	return []Path{PathPair, PathStep, PathKernel, PathBatch64}
}

// String names the path the way counterexample headers spell it.
func (p Path) String() string {
	switch p {
	case PathPair:
		return "predict/update"
	case PathStep:
		return "step"
	case PathKernel:
		return "kernel"
	case PathBatch64:
		return "bitsliced"
	default:
		return fmt.Sprintf("path(%d)", int(p))
	}
}

// Arm is the path's short name in sweep logs: pair, step, kernel or
// b64.
func (p Path) Arm() string {
	switch p {
	case PathPair:
		return "pair"
	case PathBatch64:
		return "b64"
	}
	return p.String()
}

// Arms lists the short names of the paths that apply to the cell, in
// check order, comma-separated.
func (c Cell) Arms() string {
	s := ""
	for _, p := range Paths() {
		if c.PathApplies(p) {
			if s != "" {
				s += ","
			}
			s += p.Arm()
		}
	}
	return s
}

// Cell identifies one configuration point of the sweep.
type Cell struct {
	// Family is "bimodal", "gshare", "gselect", "gskewed", "egskew",
	// "2bcgskew", "tage", "perceptron", or one of the two reference
	// predictors, "unaliased" and "assoc-lru".
	Family string
	// N is the index width: 2^N entries (per bank/table/component for
	// the multi-table families; the capacity of assoc-lru; unused by
	// unaliased).
	N uint
	// Hist is the global-history length (2bcgskew: G1's long history).
	Hist uint
	// Short is 2bcgskew's short history length (G0 and META).
	Short uint
	// Ctr is the counter width in bits (the signed weight width for
	// perceptron cells).
	Ctr uint
	// Partial selects the partial update policy (skewed family only).
	Partial bool
	// Tables is the tagged-component count (tage) or weight-table
	// count (perceptron).
	Tables int
	// Tag is the tage partial-tag width.
	Tag uint
}

// cellTageKMin is the shortest tagged history length every tage cell
// uses — the predictor.Spec default, repeated here so Cell stays a
// small coordinate.
const cellTageKMin = 4

// String names the cell unambiguously, e.g. "gskewed/n8/h10/c2/partial".
func (c Cell) String() string {
	s := fmt.Sprintf("%s/n%d/h%d/c%d", c.Family, c.N, c.Hist, c.Ctr)
	switch c.Family {
	case "gskewed", "egskew":
		if c.Partial {
			s += "/partial"
		} else {
			s += "/total"
		}
	case "2bcgskew":
		s += fmt.Sprintf("/s%d", c.Short)
	case "tage":
		s += fmt.Sprintf("/t%d/tag%d", c.Tables, c.Tag)
	case "perceptron":
		s += fmt.Sprintf("/t%d", c.Tables)
	}
	return s
}

// Spec builds the cell's executable specification.
func (c Cell) Spec() (refmodel.Spec, error) {
	switch c.Family {
	case "bimodal", "gshare", "gselect":
		return refmodel.NewSpecSingle(c.Family, c.N, c.Hist, c.Ctr), nil
	case "gskewed":
		return refmodel.NewSpecGSkewed(c.N, c.Hist, c.Ctr, c.Partial, false), nil
	case "egskew":
		return refmodel.NewSpecGSkewed(c.N, c.Hist, c.Ctr, c.Partial, true), nil
	case "2bcgskew":
		return refmodel.NewSpecTwoBcGSkew(c.N, c.Short, c.Hist), nil
	case "tage":
		return refmodel.NewSpecTAGE(c.N, c.Hist, cellTageKMin, uint(c.Tables), c.Tag, c.Ctr), nil
	case "perceptron":
		// The cell leaves theta at the family default; the refmodel
		// constructor takes it explicitly (a config value, not shared
		// behavior), so read it off the normalized spec.
		theta := predictor.Spec{Family: "perceptron", Hist: c.Hist}.Normalize().Theta
		return refmodel.NewSpecPerceptron(c.N, c.Hist, uint(c.Tables), c.Ctr, theta), nil
	case "unaliased":
		return refmodel.NewSpecUnaliased(c.Hist, c.Ctr), nil
	case "assoc-lru":
		return refmodel.NewSpecAssocLRU(1<<c.N, c.Hist, c.Ctr), nil
	default:
		return nil, fmt.Errorf("diff: unknown family %q", c.Family)
	}
}

// Impl builds the cell's optimized implementation through the unified
// predictor.Spec surface, so the sweep exercises the same construction
// path every tool and experiment uses.
func (c Cell) Impl() (predictor.Predictor, error) {
	switch c.Family {
	case "bimodal", "gshare", "gselect", "gskewed", "egskew", "2bcgskew", "tage", "perceptron", "unaliased":
	case "assoc-lru":
		return predictor.Spec{Family: c.Family, Entries: 1 << c.N, Hist: c.Hist, Ctr: c.Ctr}.New()
	default:
		return nil, fmt.Errorf("diff: unknown family %q", c.Family)
	}
	s := predictor.Spec{Family: c.Family, N: c.N, Hist: c.Hist, Ctr: c.Ctr}
	switch c.Family {
	case "gskewed", "egskew":
		s.Policy = predictor.TotalUpdate
		if c.Partial {
			s.Policy = predictor.PartialUpdate
		}
	case "2bcgskew":
		s.HistShort = c.Short
	case "tage":
		s.Tables = c.Tables
		s.Tag = c.Tag
		s.HistMin = cellTageKMin
	case "perceptron":
		s.Tables = c.Tables
	}
	return s.New()
}

// DefaultSweep returns the standard verification matrix: every
// predictor family, each update policy where the family has one, and
// at least three configurations per (family, policy) pair spanning
// history lengths (shorter, equal and longer than the index), bank
// widths and counter widths (1 and 2 bits, and 3 and 4 for the skewed
// family); then one cell for each reference predictor.
func DefaultSweep() []Cell {
	var cells []Cell
	// Single-table baselines: 3 configs each. gshare configs cover the
	// footnote-1 short-history alignment (k < n), k == n, and the
	// folding regime (k > n); gselect covers k < n and the degenerate
	// k >= n regime.
	for _, c := range []Cell{
		{Family: "bimodal", N: 8, Ctr: 2},
		{Family: "bimodal", N: 10, Ctr: 1},
		{Family: "bimodal", N: 12, Ctr: 2},
		{Family: "gshare", N: 10, Hist: 6, Ctr: 2},
		{Family: "gshare", N: 10, Hist: 10, Ctr: 2},
		{Family: "gshare", N: 8, Hist: 14, Ctr: 1},
		{Family: "gselect", N: 10, Hist: 4, Ctr: 2},
		{Family: "gselect", N: 10, Hist: 10, Ctr: 2},
		{Family: "gselect", N: 8, Hist: 12, Ctr: 1},
	} {
		cells = append(cells, c)
	}
	// Skewed family: both policies x 5 configs, plain and enhanced.
	// The 3- and 4-bit cells check the widest joint transition tables
	// the compiled kernels build.
	for _, fam := range []string{"gskewed", "egskew"} {
		for _, partial := range []bool{true, false} {
			for _, cfg := range []struct{ n, h, ctr uint }{
				{6, 6, 2},
				{8, 10, 2},
				{10, 14, 1},
				{7, 9, 3},
				{8, 12, 4},
			} {
				cells = append(cells, Cell{
					Family: fam, N: cfg.n, Hist: cfg.h, Ctr: cfg.ctr, Partial: partial,
				})
			}
		}
	}
	// 2Bc-gskew: 3 configs spanning a short history inside the index,
	// both vectors wider than one index (the long one past 2n bits, so
	// its top history bits fall outside f2) and equal lengths.
	for _, c := range []Cell{
		{Family: "2bcgskew", N: 6, Short: 3, Hist: 9, Ctr: 2},
		{Family: "2bcgskew", N: 8, Short: 10, Hist: 20, Ctr: 2},
		{Family: "2bcgskew", N: 10, Short: 12, Hist: 12, Ctr: 2},
	} {
		cells = append(cells, c)
	}
	// Modern rivals: 3 configs each, spanning short chains where every
	// component length fits the index, the folding regime (lengths well
	// past index and tag widths) and both counter/weight widths.
	for _, c := range []Cell{
		{Family: "tage", N: 6, Hist: 12, Ctr: 2, Tables: 3, Tag: 5},
		{Family: "tage", N: 7, Hist: 20, Ctr: 3, Tables: 4, Tag: 7},
		{Family: "tage", N: 8, Hist: 28, Ctr: 3, Tables: 5, Tag: 9},
		{Family: "perceptron", N: 6, Hist: 10, Ctr: 6, Tables: 3},
		{Family: "perceptron", N: 7, Hist: 16, Ctr: 8, Tables: 4},
		{Family: "perceptron", N: 8, Hist: 24, Ctr: 8, Tables: 6},
	} {
		cells = append(cells, c)
	}
	// Reference predictors, appended last so no earlier cell's trace
	// seed moves. The 16-entry assoc-lru table overflows on every
	// trace, so its replacement order is exercised.
	cells = append(cells,
		Cell{Family: "unaliased", Hist: 8, Ctr: 2},
		Cell{Family: "assoc-lru", N: 4, Hist: 6, Ctr: 2},
	)
	return cells
}

// CellByName finds a cell in the default sweep by its String name.
func CellByName(name string) (Cell, error) {
	for _, c := range DefaultSweep() {
		if c.String() == name {
			return c, nil
		}
	}
	return Cell{}, fmt.Errorf("diff: unknown cell %q (see -list)", name)
}

// PathApplies reports whether the cell's family has an implementation
// on the path. Every family but the perceptron and the reference
// predictors compiles to a kernel (internal/kernel). The bitsliced
// group form exists only for the single-table and three-bank skewed
// families, and only at 2-bit counter width.
func (c Cell) PathApplies(p Path) bool {
	switch p {
	case PathKernel:
		switch c.Family {
		case "perceptron", "unaliased", "assoc-lru":
			return false
		}
		return true
	case PathBatch64:
		switch c.Family {
		case "bimodal", "gshare", "gselect", "gskewed", "egskew":
			return c.Ctr == 2
		}
		return false
	}
	return true
}

// Divergence describes the first observable disagreement between the
// specification and the implementation on a trace.
type Divergence struct {
	// Step is the 0-based index of the diverging record in the trace
	// (counting all records, not just conditionals).
	Step int
	// Record is the trace record at the divergence.
	Record trace.Branch
	// Hist is the history register value at the divergence.
	Hist uint64
	// SpecPred and ImplPred are the two predictions.
	SpecPred, ImplPred bool
	// HistMismatch is set when the naive and optimized history
	// registers disagreed (a runner-level bug rather than a predictor
	// one); the predictions then refer to each side's own history.
	HistMismatch bool
}

func (d *Divergence) String() string {
	if d.HistMismatch {
		return fmt.Sprintf("step %d pc=%#x: history registers diverged", d.Step, d.Record.PC)
	}
	return fmt.Sprintf("step %d pc=%#x hist=%#x taken=%v: spec predicts %v, impl predicts %v",
		d.Step, d.Record.PC, d.Hist, d.Record.Taken, d.SpecPred, d.ImplPred)
}

// ImplBuilder constructs a fresh implementation for a cell. The
// default is Cell.Impl; the self-test harness substitutes builders
// with deliberately injected faults.
type ImplBuilder func(c Cell) (predictor.Predictor, error)

// KernelFault locates one entry of a compiled skewed or 2Bc-gskew
// kernel's tables to XOR a delta into, for fault-injection self-tests.
// By default it is a split-LUT entry: Bank and Half select the table
// (see kernel.TamperLUT). With Joint set it is an entry of the joint
// transition table, and Field selects a table's next state or the miss
// bit (see kernel.TamperJoint).
type KernelFault struct {
	Joint      bool
	Field      int
	Bank, Half int
	Entry      uint64
	Delta      uint32
}

// Check replays tr through a fresh spec and a fresh impl of the cell,
// comparing the prediction of every conditional branch on the selected
// implementation path. It returns the first divergence, or nil if the
// models agree on the whole trace.
func Check(tr []trace.Branch, c Cell, path Path) (*Divergence, error) {
	return CheckBuilt(tr, c, Cell.Impl, path)
}

// CheckBuilt is Check with the implementation supplied by build.
func CheckBuilt(tr []trace.Branch, c Cell, build ImplBuilder, path Path) (*Divergence, error) {
	return check(tr, c, build, path, nil)
}

// CheckKernelTampered compiles the cell's kernel, plants the fault,
// and replays tr against the specification. It exists for the
// fault-injection self-test of the kernel arm.
func CheckKernelTampered(tr []trace.Branch, c Cell, fault KernelFault) (*Divergence, error) {
	return check(tr, c, Cell.Impl, PathKernel, &fault)
}

func check(tr []trace.Branch, c Cell, build ImplBuilder, path Path, fault *KernelFault) (*Divergence, error) {
	if path == PathBatch64 {
		return checkBatch64(tr, c, build)
	}
	spec, err := c.Spec()
	if err != nil {
		return nil, err
	}
	impl, err := build(c)
	if err != nil {
		return nil, err
	}
	k := c.Hist
	if c.Family == "bimodal" {
		k = 0
	}
	specGHR := refmodel.NewSpecHistory(k)
	implGHR := history.NewGlobal(k)
	stepper, _ := impl.(predictor.Stepper)
	if path == PathStep && stepper == nil {
		return nil, fmt.Errorf("diff: %s implementation has no Stepper", c)
	}
	var kern kernel.Kernel
	if path == PathKernel {
		var ok bool
		kern, ok = kernel.Compile(impl, k)
		if !ok {
			return nil, fmt.Errorf("diff: %s implementation does not compile to a kernel", c)
		}
		if fault != nil {
			var err error
			if fault.Joint {
				err = kernel.TamperJoint(kern, fault.Entry, fault.Field, uint8(fault.Delta))
			} else {
				err = kernel.TamperLUT(kern, fault.Bank, fault.Half, fault.Entry, fault.Delta)
			}
			if err != nil {
				return nil, fmt.Errorf("diff: planting kernel fault in %s: %w", c, err)
			}
		}
	}

	for i, b := range tr {
		switch b.Kind {
		case trace.Conditional:
			sh, ih := specGHR.Value(), implGHR.Bits()
			if sh != ih {
				return &Divergence{Step: i, Record: b, HistMismatch: true}, nil
			}
			specPred := spec.Predict(b.PC, sh)
			var implPred bool
			switch path {
			case PathKernel:
				implPred = kern.Step(b.PC, ih, b.Taken)
			case PathStep:
				implPred = stepper.Step(b.PC, ih, b.Taken)
			default:
				implPred = impl.Predict(b.PC, ih)
				impl.Update(b.PC, ih, b.Taken)
			}
			if specPred != implPred {
				return &Divergence{
					Step: i, Record: b, Hist: sh,
					SpecPred: specPred, ImplPred: implPred,
				}, nil
			}
			spec.Update(b.PC, sh, b.Taken)
			specGHR.Shift(b.Taken)
			implGHR.Shift(b.Taken)
		case trace.Unconditional:
			specGHR.Shift(true)
			implGHR.Shift(true)
		default:
			return nil, fmt.Errorf("diff: unknown branch kind %d at record %d", b.Kind, i)
		}
	}
	return nil, nil
}

// TraceFor materialises a randomized trace of about n conditional
// branches for the given seed. Three generator modes rotate with the
// seed so the sweep exercises structurally different streams:
//
//	seed %% 3 == 0: an IBS-like multi-process workload benchmark,
//	seed %% 3 == 1: a raw cfg program walk (single address space),
//	seed %% 3 == 2: uniform-random addresses and outcomes over a
//	                small PC set — maximal aliasing pressure.
func TraceFor(seed uint64, n int) ([]trace.Branch, error) {
	switch seed % 3 {
	case 0:
		specs := workload.Benchmarks()
		spec := specs[int(seed/3)%len(specs)]
		g, err := workload.New(spec, workload.Config{Scale: 1, SeedOffset: seed})
		if err != nil {
			return nil, err
		}
		return trace.Collect(workload.NewTake(g, n))
	case 1:
		r := rng.NewXoshiro256(rng.Mix64(seed))
		prog, err := cfg.Generate(cfg.GenConfig{
			Procs:          4 + r.Intn(8),
			StaticBranches: 200 + r.Intn(2000),
			MeanTrips:      4 + float64(r.Intn(40)),
		}, rng.Mix64(seed+1))
		if err != nil {
			return nil, err
		}
		w := cfg.NewWalker(prog, rng.Mix64(seed+2))
		return trace.Collect(workload.NewTake(w, n))
	default:
		r := rng.NewXoshiro256(rng.Mix64(seed))
		pcBits := uint(6 + r.Intn(8))
		out := make([]trace.Branch, 0, n)
		for len(out) < n {
			b := trace.Branch{
				PC:    r.Uint64() & (uint64(1)<<pcBits - 1),
				Taken: r.Uint64()&1 == 0,
			}
			if r.Uint64()&7 == 0 {
				b.Kind = trace.Unconditional
				b.Taken = true
			}
			out = append(out, b)
		}
		return out, nil
	}
}

// CellResult is the outcome of verifying one cell.
type CellResult struct {
	Cell Cell
	// Seed is the trace seed the cell ran (and diverged, if it did) on.
	Seed uint64
	// Branches is the requested trace length, needed to replay Seed.
	Branches int
	// Steps is the total number of trace records checked, summed over
	// every implementation path.
	Steps int
	// Path records which implementation path diverged.
	Path Path
	// Div is the first divergence, nil when the cell verified clean.
	Div *Divergence
	// Shrunk is the minimal counterexample trace (only on divergence).
	Shrunk []trace.Branch
}

// Options configures a sweep.
type Options struct {
	// Branches is the trace length per cell (conditionals; default 60000).
	Branches int
	// Seed is the base trace seed; cell i runs on Seed+i.
	Seed uint64
	// Log, when non-nil, receives one progress line per cell.
	Log io.Writer
}

func (o *Options) branches() int {
	if o.Branches <= 0 {
		return 60000
	}
	return o.Branches
}

// VerifyCell checks one cell over its trace on every implementation
// path, shrinking the trace on divergence.
func VerifyCell(c Cell, seed uint64, branches int) (CellResult, error) {
	res := CellResult{Cell: c, Seed: seed, Branches: branches}
	tr, err := TraceFor(seed, branches)
	if err != nil {
		return res, fmt.Errorf("diff: generating trace for %s (seed %d): %w", c, seed, err)
	}
	for _, path := range Paths() {
		if !c.PathApplies(path) {
			continue
		}
		div, err := Check(tr, c, path)
		if err != nil {
			return res, err
		}
		res.Steps += len(tr)
		if div != nil {
			res.Div = div
			res.Path = path
			res.Shrunk = Shrink(tr, c, path)
			return res, nil
		}
	}
	return res, nil
}

// Sweep verifies every cell, returning per-cell results. It does not
// stop at the first divergence: a full sweep report is more useful
// when a change breaks several families at once.
func Sweep(cells []Cell, opts Options) ([]CellResult, error) {
	results := make([]CellResult, 0, len(cells))
	for i, c := range cells {
		res, err := VerifyCell(c, opts.Seed+uint64(i), opts.branches())
		if err != nil {
			return results, err
		}
		if opts.Log != nil {
			status := "ok"
			if res.Div != nil {
				status = fmt.Sprintf("DIVERGED (%v; shrunk to %d records)", res.Div, len(res.Shrunk))
			}
			fmt.Fprintf(opts.Log, "%-28s seed=%-6d steps=%-8d paths=%-26s %s\n", c, res.Seed, res.Steps, c.Arms(), status)
		}
		results = append(results, res)
	}
	return results, nil
}
