// Package workload assembles synthetic multi-process workloads that
// stand in for the IBS-Ultrix benchmark traces used in the paper.
//
// A workload is a set of user processes (each an independent cfg
// program in its own address range) plus a shared kernel program,
// interleaved by a quantum-based scheduler with occasional kernel
// entries (syscalls, interrupts). This reproduces the property that
// makes IBS interesting for aliasing studies: a large combined working
// set of branch substreams from multiple address spaces plus OS code,
// far bigger than any single user program's.
//
// Six named benchmarks mirror the paper's Table 1 suite — groff, gs,
// mpeg_play, nroff, real_gcc and verilog — with static conditional
// branch counts matching the paper exactly and per-benchmark behaviour
// mixes chosen so the unaliased misprediction rates land in the
// paper's reported ranges (Table 2). Dynamic lengths are scaled down
// by default for runtime; use Config.Scale to restore full length.
package workload

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"gskew/internal/cfg"
	"gskew/internal/rng"
	"gskew/internal/trace"
)

// Spec describes one named benchmark workload.
type Spec struct {
	// Name is the benchmark identifier (e.g. "groff").
	Name string
	// StaticBranches is the target static conditional site count,
	// matching the paper's Table 1.
	StaticBranches int
	// DynamicBranches is the paper's full dynamic conditional count.
	DynamicBranches int
	// Processes is the number of user processes.
	Processes int
	// KernelFraction is the share of dynamic activity in kernel code.
	KernelFraction float64
	// Quantum is the mean number of branches between context switches.
	Quantum int
	// Mix weights branch behaviours in user code.
	Mix cfg.BehaviorMix
	// MeanTrips is the mean loop trip count.
	MeanTrips float64
	// Seed makes the benchmark reproducible.
	Seed uint64
}

// Benchmarks returns the six-benchmark suite in the paper's order.
// Static branch counts match Table 1. Behaviour mixes are tuned per
// benchmark: nroff/groff (text formatters) are loopy and predictable,
// real_gcc has a huge static population with more irregular branches,
// mpeg_play is compute-heavy with hard data-dependent branches,
// verilog and gs sit in between.
func Benchmarks() []Spec {
	return []Spec{
		{
			Name: "groff", StaticBranches: 5634, DynamicBranches: 11568181,
			Processes: 2, KernelFraction: 0.12, Quantum: 1600,
			Mix:       cfg.BehaviorMix{StronglyBiased: 0.630, WeaklyBiased: 0.08, Correlated: 0.270, Random: 0.01, Alternating: 0.01},
			MeanTrips: 45, Seed: 0x67726f66, // "grof"
		},
		{
			Name: "gs", StaticBranches: 10935, DynamicBranches: 14288742,
			Processes: 3, KernelFraction: 0.15, Quantum: 1200,
			Mix:       cfg.BehaviorMix{StronglyBiased: 0.565, WeaklyBiased: 0.11, Correlated: 0.290, Random: 0.02, Alternating: 0.015},
			MeanTrips: 36, Seed: 0x6773,
		},
		{
			Name: "mpeg_play", StaticBranches: 4752, DynamicBranches: 8109029,
			Processes: 2, KernelFraction: 0.18, Quantum: 1000,
			Mix:       cfg.BehaviorMix{StronglyBiased: 0.495, WeaklyBiased: 0.15, Correlated: 0.290, Random: 0.04, Alternating: 0.025},
			MeanTrips: 26, Seed: 0x6d706567,
		},
		{
			Name: "nroff", StaticBranches: 4480, DynamicBranches: 21368201,
			Processes: 2, KernelFraction: 0.10, Quantum: 2000,
			Mix:       cfg.BehaviorMix{StronglyBiased: 0.655, WeaklyBiased: 0.07, Correlated: 0.260, Random: 0.005, Alternating: 0.01},
			MeanTrips: 65, Seed: 0x6e726f66,
		},
		{
			Name: "real_gcc", StaticBranches: 16716, DynamicBranches: 13940672,
			Processes: 3, KernelFraction: 0.14, Quantum: 900,
			Mix:       cfg.BehaviorMix{StronglyBiased: 0.475, WeaklyBiased: 0.18, Correlated: 0.280, Random: 0.04, Alternating: 0.025},
			MeanTrips: 20, Seed: 0x676363,
		},
		{
			Name: "verilog", StaticBranches: 3918, DynamicBranches: 5692823,
			Processes: 2, KernelFraction: 0.13, Quantum: 1200,
			Mix:       cfg.BehaviorMix{StronglyBiased: 0.580, WeaklyBiased: 0.11, Correlated: 0.280, Random: 0.015, Alternating: 0.015},
			MeanTrips: 36, Seed: 0x766c6f67,
		},
	}
}

// ByName returns the Spec for a benchmark name.
func ByName(name string) (Spec, error) {
	for _, s := range Benchmarks() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, Names())
}

// Names lists the benchmark names in suite order.
func Names() []string {
	specs := Benchmarks()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// Config adjusts workload realisation.
type Config struct {
	// Scale multiplies the dynamic length: 1.0 reproduces the paper's
	// dynamic conditional counts; the default 0 means DefaultScale.
	Scale float64
	// SeedOffset perturbs the benchmark seed (for variance studies).
	SeedOffset uint64
}

// DefaultScale keeps default runs fast (~2M conditionals for the
// largest benchmark) while remaining far larger than every predictor
// working set under study.
const DefaultScale = 0.1

// kernelSpace is the address-space stride separating processes, and
// the base of kernel text (mirroring a high-half kernel).
const (
	processStride = 1 << 24 // 16M words per process image
	kernelBase    = 1 << 31
)

// Generator realises a workload as a branch-event stream. It
// implements trace.Source and never returns io.EOF on its own; use
// Length to know the intended dynamic conditional count, or wrap with
// Take.
type Generator struct {
	spec      Spec
	processes []*cfg.Walker
	kernel    *cfg.Walker
	sched     *rng.Xoshiro256

	// The scheduler's draws: kernel entry per schedule, and the
	// geometric lengths of a kernel burst and of a user quantum.
	kernelEntry, burstLen, quantumLen rng.Chance

	current   int // index into processes, or -1 for kernel
	remaining int // branches left in the current quantum
	inKernel  bool
	length    int // intended dynamic conditional count
}

// New builds the generator for spec with config c.
func New(spec Spec, c Config) (*Generator, error) {
	scale := c.Scale
	if scale <= 0 {
		scale = DefaultScale
	}
	procs := spec.Processes
	if procs < 1 {
		procs = 1
	}

	// Kernel bursts are kernelBurstRatio times shorter than user
	// quanta, so to make the kernel's *dynamic share* equal
	// KernelFraction the per-schedule entry probability must be
	// derated: p = r*f / ((r-1)*f + 1).
	f := spec.KernelFraction
	g := &Generator{
		spec:        spec,
		sched:       rng.NewXoshiro256(rng.Mix64(spec.Seed + c.SeedOffset + 0xABCD)),
		kernelEntry: rng.NewChance(kernelBurstRatio * f / ((kernelBurstRatio-1)*f + 1)),
		burstLen:    rng.NewChance(1.0 / float64(spec.Quantum/kernelBurstRatio+1)),
		quantumLen:  rng.NewChance(1.0 / float64(spec.Quantum+1)),
		length:      int(float64(spec.DynamicBranches) * scale),
	}

	// User processes split the static budget: the first process gets
	// the lion's share (the benchmark program itself); the rest model
	// daemons/shells with small footprints, matching how IBS traces
	// contain one dominant application.
	mainShare := spec.StaticBranches * 7 / 10
	rest := spec.StaticBranches - mainShare
	perOther := 0
	if procs > 1 {
		perOther = rest * 7 / 10 / (procs - 1)
	}
	kernelSites := rest - perOther*(procs-1)
	if kernelSites < 64 {
		kernelSites = 64
	}

	for i := 0; i < procs; i++ {
		sites := mainShare
		if i > 0 {
			sites = perOther
			if sites < 16 {
				sites = 16
			}
		}
		prog, err := cfg.Generate(cfg.GenConfig{
			Procs:          4 + sites/64,
			StaticBranches: sites,
			Mix:            spec.Mix,
			MeanTrips:      spec.MeanTrips,
			Base:           uint64(1+i) * processStride,
		}, rng.Mix64(spec.Seed+c.SeedOffset+uint64(i)))
		if err != nil {
			return nil, fmt.Errorf("workload %s: process %d: %w", spec.Name, i, err)
		}
		g.processes = append(g.processes, cfg.NewWalker(prog, rng.Mix64(spec.Seed^uint64(i)+c.SeedOffset)))
	}

	// Kernel program: biased toward error-check-style branches (mostly
	// strongly biased) but with a large loop population (buffer scans).
	kprog, err := cfg.Generate(cfg.GenConfig{
		Procs:          4 + kernelSites/64,
		StaticBranches: kernelSites,
		Mix: cfg.BehaviorMix{
			StronglyBiased: 0.62, WeaklyBiased: 0.13,
			Correlated: 0.15, Random: 0.06, Alternating: 0.04,
		},
		MeanTrips: spec.MeanTrips,
		Base:      kernelBase,
	}, rng.Mix64(spec.Seed+c.SeedOffset+0x99))
	if err != nil {
		return nil, fmt.Errorf("workload %s: kernel: %w", spec.Name, err)
	}
	g.kernel = cfg.NewWalker(kprog, rng.Mix64(spec.Seed+c.SeedOffset+0x9999))

	g.scheduleNext()
	return g, nil
}

// Length returns the intended dynamic conditional branch count.
func (g *Generator) Length() int { return g.length }

// Spec returns the workload specification.
func (g *Generator) Spec() Spec { return g.spec }

// kernelBurstRatio is how much shorter a kernel burst (syscall or
// interrupt service) is than a user quantum.
const kernelBurstRatio = 4

func (g *Generator) scheduleNext() {
	if g.kernelEntry.Bool(g.sched) {
		g.inKernel = true
		g.remaining = 1 + g.burstLen.Geometric(g.sched)
		return
	}
	g.inKernel = false
	g.current = g.sched.Intn(len(g.processes))
	g.remaining = 1 + g.quantumLen.Geometric(g.sched)
}

// Next implements trace.Source: a one-record NextBatch.
func (g *Generator) Next() (trace.Branch, error) {
	var b [1]trace.Branch
	g.NextBatch(b[:])
	return b[0], nil
}

// NextBatch implements trace.BatchSource. The generator is endless,
// so every call fills dst completely: each scheduler quantum, or the
// part of it that fits, is one Fill of the walker it runs, and the
// scheduler fires at exactly the same event positions as the
// per-event path.
func (g *Generator) NextBatch(dst []trace.Branch) (int, error) {
	for rest := dst; len(rest) > 0; {
		if g.remaining <= 0 {
			g.scheduleNext()
		}
		w := g.kernel
		if !g.inKernel {
			w = g.processes[g.current]
		}
		n := min(g.remaining, len(rest))
		w.Fill(rest[:n])
		g.remaining -= n
		rest = rest[n:]
	}
	return len(dst), nil
}

// Take bounds a source to n conditional branches (events of other
// kinds pass through uncounted). After the bound it returns io.EOF.
type Take struct {
	src       trace.Source
	remaining int
}

// NewTake wraps src, stopping after n conditional branches.
func NewTake(src trace.Source, n int) *Take { return &Take{src: src, remaining: n} }

// Next implements trace.Source.
func (t *Take) Next() (trace.Branch, error) {
	if t.remaining <= 0 {
		return trace.Branch{}, io.EOF
	}
	b, err := t.src.Next()
	if err != nil {
		return b, err
	}
	if b.Kind == trace.Conditional {
		t.remaining--
	}
	return b, nil
}

// NextBatch implements trace.BatchSource. It requests at most
// `remaining` records per call, which makes the batched stream
// identical to the per-event one: with a window w <= remaining, the
// window can only contain remaining conditionals if ALL w records are
// conditional (w <= remaining forces c == w), in which case the final
// record delivered is exactly the last conditional — the same stop
// point Next enforces. No record beyond the bound is ever pulled from
// the source.
func (t *Take) NextBatch(dst []trace.Branch) (int, error) {
	if t.remaining <= 0 {
		return 0, io.EOF
	}
	w := len(dst)
	if w > t.remaining {
		w = t.remaining
	}
	n, err := trace.ReadBatch(t.src, dst[:w])
	for _, b := range dst[:n] {
		if b.Kind == trace.Conditional {
			t.remaining--
		}
	}
	return n, err
}

// Materialize generates the full bounded trace for spec into memory,
// pulling it from the generator in blocks straight into the result's
// spare capacity.
func Materialize(spec Spec, c Config) ([]trace.Branch, error) {
	g, err := New(spec, c)
	if err != nil {
		return nil, err
	}
	t := NewTake(g, g.Length())
	branches := make([]trace.Branch, 0, g.Length()*5/4)
	for {
		if len(branches) == cap(branches) {
			branches = slices.Grow(branches, trace.BlockLen)
		}
		n, err := t.NextBatch(branches[len(branches):cap(branches)])
		branches = branches[:len(branches)+n]
		if errors.Is(err, io.EOF) {
			return branches, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// SortedNames returns benchmark names sorted alphabetically; used by
// CLIs for stable flag documentation.
func SortedNames() []string {
	n := Names()
	sort.Strings(n)
	return n
}
