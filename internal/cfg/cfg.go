// Package cfg models synthetic programs as structured control-flow
// graphs and interprets them to produce branch traces.
//
// The IBS-Ultrix traces used by the paper are not publicly available,
// so this repository substitutes synthetic programs whose *branch
// statistics* — static site counts, outcome bias mix, loop structure,
// history correlation, call/jump density — are calibrated to the
// figures the paper reports (Table 1 and Table 2). A program here is a
// set of procedures, each a tree of sequences, if/else regions,
// bottom-tested loops, calls and jumps. Walking the tree emits a
// branch event stream with genuine control-flow-induced correlation:
// which branches execute, and with what history, depends on earlier
// outcomes exactly as in compiled code.
//
// Programs are immutable once built; all mutable execution state lives
// in a Walker, so one Program can drive many concurrent experiment
// runs. NewWalker compiles the tree once into a flat op stream (one op
// per conditional, loop entry, backedge, call, return, jump and arm
// end), and the walker keeps only that stream, so a caller may drop
// the Program as soon as its walkers are built. Fill runs the stream a
// block of records at a time. Compiling changes no record: every op
// draws from the walker's generator exactly when, and as often as,
// walking the tree would — Biased, Correlated and Alternating sites
// are decided inline with integer thresholds that agree with
// rng.Bool draw for draw, and any other Behavior is still asked
// through Decide.
package cfg

import (
	"fmt"
	"slices"
	"sync"

	"gskew/internal/rng"
)

// Behavior decides the outcome of a conditional branch site each time
// it executes. Implementations receive the walker's outcome history
// (newest outcome in bit 0, including unconditional branches as taken,
// matching what a global-history predictor observes) and a per-site
// scratch counter they may update.
type Behavior interface {
	// Decide returns the branch outcome. scratch is per-(walker, site)
	// mutable state, initially zero.
	Decide(r *rng.Xoshiro256, hist uint64, scratch *uint64) bool
	// Bias returns the site's long-run taken probability, used for
	// calibration and for the analytical model's bias parameter b.
	Bias() float64
}

// Biased is a behavior that is taken with fixed probability P,
// independent of history. Strongly biased sites (P near 0 or 1) model
// error checks and guard branches; P near 0.5 models data-dependent
// branches that no predictor can learn.
type Biased struct{ P float64 }

// Decide implements Behavior.
func (b Biased) Decide(r *rng.Xoshiro256, _ uint64, _ *uint64) bool { return r.Bool(b.P) }

// Bias implements Behavior.
func (b Biased) Bias() float64 { return b.P }

// Correlated computes its outcome from the global outcome history:
// taken iff the parity of (hist & Mask) equals Invert. A predictor
// with enough history bits can learn these sites perfectly; an
// address-only predictor sees a seemingly random branch. Noise flips
// the computed outcome with probability Noise.
type Correlated struct {
	Mask   uint64
	Invert bool
	Noise  float64
}

// Decide implements Behavior.
func (c Correlated) Decide(r *rng.Xoshiro256, hist uint64, _ *uint64) bool {
	v := hist & c.Mask
	// Parity of the masked bits.
	parity := false
	for v != 0 {
		parity = !parity
		v &= v - 1
	}
	out := parity != c.Invert
	if c.Noise > 0 && r.Bool(c.Noise) {
		out = !out
	}
	return out
}

// Bias implements Behavior. Correlated sites are balanced in the long
// run because the masked history bits are near-uniform.
func (c Correlated) Bias() float64 { return 0.5 }

// Alternating produces Period taken outcomes followed by Period
// not-taken outcomes, cycling. It models phase-structured branches
// (e.g. parity of a scan over alternating data).
type Alternating struct{ Period uint64 }

// Decide implements Behavior.
func (a Alternating) Decide(_ *rng.Xoshiro256, _ uint64, scratch *uint64) bool {
	p := a.Period
	if p == 0 {
		p = 1
	}
	out := (*scratch/p)%2 == 0
	*scratch++
	return out
}

// Bias implements Behavior.
func (a Alternating) Bias() float64 { return 0.5 }

// TripDist describes the per-entry trip count of a loop: a sample is
// Min plus a geometric tail with the given mean excess (MeanExtra = 0
// yields the constant Min).
type TripDist struct {
	Min       int
	MeanExtra float64
}

// Sample draws a trip count (always >= max(Min, 1)).
func (d TripDist) Sample(r *rng.Xoshiro256) int {
	n := d.Min
	if n < 1 {
		n = 1
	}
	if d.MeanExtra > 0 {
		// Geometric with mean MeanExtra has success prob 1/(1+mean).
		n += r.Geometric(1/(1+d.MeanExtra)) - 1
	}
	return n
}

// Node is one element of a procedure body. The concrete types are
// Block, If, Loop, Call and Jump.
type Node interface{ isNode() }

// Block is straight-line code with no branch. It occupies address
// space (so later branch PCs are spread realistically) but emits no
// trace events.
type Block struct{ Size int }

func (Block) isNode() {}

// CondSite is a static conditional branch site. Generate stores each
// site's built-in behaviour by pointer (*Biased, *Correlated or
// *Alternating) into a slab of its program, so that no site boxes its
// own; hand-built sites usually hold values. Code that switches on a
// Behavior's type handles both forms.
type CondSite struct {
	PC       uint64
	Behavior Behavior
	id       int // index into the walker's scratch array
}

// If is a two-armed conditional region. Taken executes Then; not-taken
// executes Else (either may be empty).
type If struct {
	Site *CondSite
	Then []Node
	Else []Node
}

func (*If) isNode() {}

// Loop is a bottom-tested loop: the body always executes at least
// once; the backedge branch at Site is taken to repeat the body.
type Loop struct {
	Site  *CondSite
	Body  []Node
	Trips TripDist
}

func (*Loop) isNode() {}

// Call transfers to another procedure, emitting an unconditional
// branch at the call site and another at the callee's return.
type Call struct {
	PC     uint64 // call instruction address
	Callee int    // procedure index; must be > caller's index (no recursion)
}

func (*Call) isNode() {}

// Jump is a direct unconditional branch (goto, tail of a switch).
type Jump struct{ PC uint64 }

func (*Jump) isNode() {}

// Proc is one procedure.
type Proc struct {
	Name     string
	Body     []Node
	ReturnPC uint64 // address of the return jump
}

// Program is an immutable synthetic program.
type Program struct {
	Procs []*Proc
	Entry int // index of the entry procedure

	sites []*CondSite // all conditional sites, indexed by id
}

// NumSites returns the number of static conditional branch sites.
func (p *Program) NumSites() int { return len(p.sites) }

// Sites returns all conditional branch sites. The slice must not be
// modified.
func (p *Program) Sites() []*CondSite { return p.sites }

// StaticBias returns the mean long-run taken probability across all
// sites — the paper's bias parameter b measured over static sites.
func (p *Program) StaticBias() float64 {
	if len(p.sites) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range p.sites {
		sum += s.Behavior.Bias()
	}
	return sum / float64(len(p.sites))
}

// Validate checks structural invariants: call targets in range and
// strictly increasing (guaranteeing termination of each activation),
// non-nil behaviors, and registered sites.
func (p *Program) Validate() error {
	if p.Entry < 0 || p.Entry >= len(p.Procs) {
		return fmt.Errorf("cfg: entry %d out of range", p.Entry)
	}
	for i, proc := range p.Procs {
		if err := p.validateSeq(proc.Body, i); err != nil {
			return fmt.Errorf("cfg: proc %d (%s): %w", i, proc.Name, err)
		}
	}
	return nil
}

func (p *Program) validateSeq(seq []Node, procIdx int) error {
	for _, n := range seq {
		switch n := n.(type) {
		case Block:
			if n.Size < 0 {
				return fmt.Errorf("negative block size")
			}
		case *If:
			if n.Site == nil || n.Site.Behavior == nil {
				return fmt.Errorf("if with nil site/behavior")
			}
			if err := p.validateSeq(n.Then, procIdx); err != nil {
				return err
			}
			if err := p.validateSeq(n.Else, procIdx); err != nil {
				return err
			}
		case *Loop:
			if n.Site == nil || n.Site.Behavior == nil {
				return fmt.Errorf("loop with nil site/behavior")
			}
			if err := p.validateSeq(n.Body, procIdx); err != nil {
				return err
			}
		case *Call:
			if n.Callee <= procIdx || n.Callee >= len(p.Procs) {
				return fmt.Errorf("call from proc %d to %d violates DAG ordering", procIdx, n.Callee)
			}
		case *Jump:
			// Always valid.
		default:
			return fmt.Errorf("unknown node type %T", n)
		}
	}
	return nil
}

// Builder assembles a Program, assigning PCs and site IDs. The sites,
// calls, jumps and procedures it hands out are carved from the slabs
// of the program's arena, so a Builder costs a few allocations per
// program rather than one per node. A Builder is not safe for
// concurrent use; separate Builders share nothing.
type Builder struct {
	prog   *Program
	nextPC uint64
	a      *arena
}

// NewBuilder starts a program whose code is laid out from base (a word
// address).
func NewBuilder(base uint64) *Builder {
	a := new(arena)
	return &Builder{prog: &a.prog, nextPC: base, a: a}
}

// reserve sizes the builder's slabs for a program of the given site,
// procedure and call counts, so building it allocates each slab at
// most once.
func (b *Builder) reserve(sites, procs, calls int) {
	b.prog.sites = slices.Grow(b.prog.sites[:0], sites)
	b.prog.Procs = slices.Grow(b.prog.Procs[:0], procs)
	b.a.sites.reserve(sites)
	b.a.procs.reserve(procs)
	b.a.calls.reserve(calls)
}

// PC returns the next unassigned word address.
func (b *Builder) PC() uint64 { return b.nextPC }

// Skip advances the layout cursor by n words (inter-procedure padding).
func (b *Builder) Skip(n uint64) { b.nextPC += n }

// NewSite allocates a conditional branch site at the current PC.
func (b *Builder) NewSite(behavior Behavior) *CondSite {
	s := b.a.sites.new()
	*s = CondSite{PC: b.nextPC, Behavior: behavior, id: len(b.prog.sites)}
	b.prog.sites = append(b.prog.sites, s)
	b.nextPC++
	return s
}

// NewBlock allocates a straight-line block of the given size.
func (b *Builder) NewBlock(size int) Block {
	b.nextPC += uint64(size)
	return Block{Size: size}
}

// NewCall allocates a call instruction targeting procedure callee.
func (b *Builder) NewCall(callee int) *Call {
	c := b.a.calls.new()
	*c = Call{PC: b.nextPC, Callee: callee}
	b.nextPC++
	return c
}

// NewJump allocates a direct jump instruction.
func (b *Builder) NewJump() *Jump {
	j := b.a.jumps.new()
	j.PC = b.nextPC
	b.nextPC++
	return j
}

// AddProc appends a procedure with the given body and allocates its
// return-jump address. It returns the procedure index.
func (b *Builder) AddProc(name string, body []Node) int {
	p := b.a.procs.new()
	*p = Proc{Name: name, Body: body, ReturnPC: b.nextPC}
	b.nextPC++
	b.prog.Procs = append(b.prog.Procs, p)
	return len(b.prog.Procs) - 1
}

// Build finalises the program with the given entry procedure.
func (b *Builder) Build(entry int) (*Program, error) {
	b.prog.Entry = entry
	if err := b.prog.Validate(); err != nil {
		return nil, err
	}
	return b.prog, nil
}

// arena holds the slabs a program is carved from: its Program header,
// every node, site and generated behaviour, and the one backing store
// of all its sequences. An arena either belongs to one program
// (NewBuilder, Generate) or, when the program never leaves the call
// that built it (GenerateWalker), to a workspace that reuses it for
// the next program.
type arena struct {
	prog        Program
	sites       slab[CondSite]
	calls       slab[Call]
	jumps       slab[Jump]
	procs       slab[Proc]
	ifs         slab[If]
	loops       slab[Loop]
	nodes       slab[Node]
	biased      slab[Biased]
	correlated  slab[Correlated]
	alternating slab[Alternating]
}

// reset empties the arena for the next program, keeping its chunks.
func (a *arena) reset() {
	a.prog = Program{Procs: a.prog.Procs[:0], sites: a.prog.sites[:0]}
	a.sites.reset()
	a.calls.reset()
	a.jumps.reset()
	a.procs.reset()
	a.ifs.reset()
	a.loops.reset()
	a.nodes.reset()
	a.biased.reset()
	a.correlated.reset()
	a.alternating.reset()
}

// slab hands out values of T from chunks that never move, so every
// pointer and run it has returned stays valid as it grows. A new chunk
// holds at least hint values and at least twice the previous chunk,
// so a slab whose hint is short still costs only a logarithmic number
// of allocations. new zeroes what it hands out and take's callers
// overwrite it, which is what lets a reset slab reuse its chunk.
type slab[T any] struct {
	chunk []T
	hint  int // capacity of the next chunk
}

// minChunk is the smallest chunk a slab allocates.
const minChunk = 16

// reserve sets the size of the slab's first chunk. A chunk kept from
// an earlier program that is smaller is dropped, so that the program
// fits in one chunk.
func (s *slab[T]) reserve(n int) {
	s.hint = n
	if cap(s.chunk)-len(s.chunk) < n {
		s.chunk = nil
	}
}

// reset forgets every value handed out, keeping the chunk.
func (s *slab[T]) reset() { s.chunk = s.chunk[:0] }

// grow starts a chunk with room for at least n values.
func (s *slab[T]) grow(n int) {
	s.chunk = make([]T, 0, max(n, s.hint, 2*cap(s.chunk), minChunk))
}

// new returns a pointer to a zero value.
func (s *slab[T]) new() *T {
	if len(s.chunk) == cap(s.chunk) {
		s.grow(1)
	}
	var zero T
	s.chunk = append(s.chunk, zero)
	return &s.chunk[len(s.chunk)-1]
}

// take returns a run of n values (nil when n is 0) for the caller to
// overwrite in full: in a reset slab they hold an earlier program's.
// The run's capacity is its length, so appending to it copies rather
// than overwriting the run after it.
func (s *slab[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	if cap(s.chunk)-len(s.chunk) < n {
		s.grow(n)
	}
	i := len(s.chunk)
	s.chunk = s.chunk[:i+n]
	return s.chunk[i : i+n : i+n]
}

// resize returns s resized to n, reusing its array when it is big
// enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// workspace is the working memory of one Generate, NewWalker or
// GenerateWalker call. They run for every program of every workload,
// concurrently when scheduler cells generate in parallel, so
// workspaces are pooled: a call holds its workspace alone from Get to
// release. release drops the scratch's references into the program or
// walker the call made; the arena keeps its chunks, and only a
// program that never left GenerateWalker was built in it.
type workspace struct {
	gen   genScratch
	comp  compiler
	arena arena // for GenerateWalker's programs, which never leave it
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

func (ws *workspace) release() {
	ws.gen.release()
	ws.comp.release()
	workspaces.Put(ws)
}
