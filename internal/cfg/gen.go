package cfg

import (
	"strconv"
	"strings"

	"gskew/internal/rng"
)

// BehaviorMix gives the relative weights with which the generator
// assigns outcome behaviours to non-loop conditional sites. Weights
// need not sum to 1; they are normalised.
type BehaviorMix struct {
	// StronglyBiased sites are taken (or not) ~95% of the time.
	StronglyBiased float64
	// WeaklyBiased sites are ~75/25.
	WeaklyBiased float64
	// Correlated sites are a deterministic function of recent global
	// history plus a little noise.
	Correlated float64
	// Random sites are 50/50 and unlearnable.
	Random float64
	// Alternating sites flip in phases.
	Alternating float64
}

func (m BehaviorMix) total() float64 {
	return m.StronglyBiased + m.WeaklyBiased + m.Correlated + m.Random + m.Alternating
}

// DefaultMix is a mix calibrated so that an unaliased 2-bit predictor
// with a long history lands in the paper's 2-5% misprediction range:
// mostly biased branches, a solid correlated population, and a small
// unlearnable remainder.
var DefaultMix = BehaviorMix{
	StronglyBiased: 0.50,
	WeaklyBiased:   0.10,
	Correlated:     0.37,
	Random:         0.015,
	Alternating:    0.015,
}

// GenConfig parameterises random program generation.
type GenConfig struct {
	// Procs is the number of procedures (>= 1).
	Procs int
	// StaticBranches is the target number of conditional branch sites.
	StaticBranches int
	// Mix weights non-loop site behaviours. Zero value means DefaultMix.
	Mix BehaviorMix
	// LoopFraction of conditional sites are loop backedges (default 0.25).
	LoopFraction float64
	// CallFraction controls unconditional jump density per structural
	// slot (calls themselves form a random tree; default 0.18).
	CallFraction float64
	// MeanBlockSize spaces branch PCs apart (default 6 words).
	MeanBlockSize int
	// MeanTrips is the mean extra trip count of loops (default 6).
	MeanTrips float64
	// MaxHistBits bounds how far back correlated sites look (default 12).
	MaxHistBits uint
	// Base is the starting word address of the program text.
	Base uint64
}

func (c *GenConfig) fillDefaults() {
	if c.Procs < 1 {
		c.Procs = 1
	}
	if c.StaticBranches < 1 {
		c.StaticBranches = 1
	}
	if c.Mix.total() == 0 {
		c.Mix = DefaultMix
	}
	if c.LoopFraction <= 0 {
		c.LoopFraction = 0.18
	}
	if c.CallFraction <= 0 {
		c.CallFraction = 0.18
	}
	if c.MeanBlockSize <= 0 {
		c.MeanBlockSize = 6
	}
	if c.MeanTrips <= 0 {
		c.MeanTrips = 6
	}
	if c.MaxHistBits == 0 {
		c.MaxHistBits = 12
	}
}

// Generate builds a random program from cfg using the given seed. The
// program's conditional-site count equals cfg.StaticBranches exactly.
//
// Every node, site, behaviour and sequence of the program is carved
// from slabs of an arena that belongs to it, and the working memory is
// pooled (see workspace), so generating a program costs about fifteen
// allocations whatever its size. Generate is safe for concurrent use.
func Generate(cfg GenConfig, seed uint64) (*Program, error) {
	ws := workspaces.Get().(*workspace)
	defer ws.release()
	return generate(cfg, seed, new(arena), &ws.gen), nil
}

// GenerateWalker returns NewWalker(prog, walkerSeed) for the program
// prog that Generate(cfg, seed) returns, without keeping prog. It is
// how a workload builds its processes: because the program never
// leaves the call, it is built in its workspace's arena, whose chunks
// the next program reuses, so the call allocates only the walker.
func GenerateWalker(cfg GenConfig, seed, walkerSeed uint64) *Walker {
	ws := workspaces.Get().(*workspace)
	defer ws.release()
	ws.arena.reset()
	return ws.comp.compile(generate(cfg, seed, &ws.arena, &ws.gen), walkerSeed)
}

// generate builds Generate's program in arena a, drawing its working
// memory from scratch.
func generate(cfg GenConfig, seed uint64, a *arena, scratch *genScratch) *Program {
	cfg.fillDefaults()
	// Distribute the static-branch budget across procedures with a
	// random split that guarantees at least one site per procedure
	// (procedure count is capped by the budget).
	procs := min(cfg.Procs, cfg.StaticBranches)
	m := cfg.Mix
	g := &generator{
		cfg: cfg, r: *rng.NewXoshiro256(seed),
		b: Builder{prog: &a.prog, nextPC: cfg.Base, a: a}, a: a, procs: procs,
		mixTotal: m.total(),
		mixBounds: [4]float64{
			m.StronglyBiased,
			m.StronglyBiased + m.WeaklyBiased,
			m.StronglyBiased + m.WeaklyBiased + m.Correlated,
			m.StronglyBiased + m.WeaklyBiased + m.Correlated + m.Random,
		},
		genScratch: scratch,
	}
	r, b := &g.r, &g.b
	b.reserve(cfg.StaticBranches, procs, procs-1+procs/5)
	g.reserve(cfg.StaticBranches)
	g.size(procs)

	budgets := g.budgets
	for i := range budgets {
		budgets[i] = 1
	}
	for extra := cfg.StaticBranches - procs; extra > 0; extra-- {
		budgets[r.Intn(procs)]++
	}

	// Reserve one site from the entry procedure's budget for the main
	// processing loop added below.
	mainLoop := budgets[0] >= 2
	if mainLoop {
		budgets[0]--
	}
	// Each procedure's top-level sequence stays staged until the calls
	// below are placed in it.
	staged := g.staged
	for i := 0; i < procs; i++ {
		start := len(g.stack)
		g.stage(budgets[i], i, 0)
		staged[i] = span{start, len(g.stack)}
	}

	// Call graph. Dynamic procedure-execution counts compound
	// multiplicatively along call chains, so unconstrained random
	// calls make one program activation astronomically long. Instead,
	// the call graph is a random tree — every procedure j > 0 is
	// called exactly once per activation from a parent p < j — plus a
	// small number of extra cross-calls for irregularity. This keeps
	// an activation's dynamic length linear in the static site count,
	// so long traces revisit every site many times (high static
	// coverage, matching Table 1 accounting).
	//
	// A call goes at a random position of its caller's body as that
	// body stands, earlier calls included; the positions are drawn
	// here and the calls placed when the bodies are laid out.
	lens := g.lens
	for i, sp := range staged {
		lens[i] = sp.end - sp.start
	}
	inserts := g.inserts[:0]
	insertCall := func(caller, callee int) {
		call := b.NewCall(callee)
		inserts = append(inserts, insertion{caller: caller, pos: r.Intn(lens[caller] + 1), call: call})
		lens[caller]++
	}
	for j := 1; j < procs; j++ {
		insertCall(r.Intn(j), j)
	}
	for extra := procs / 5; extra > 0; extra-- {
		i := r.Intn(procs - 1)
		insertCall(i, i+1+r.Intn(procs-i-1))
	}
	g.inserts = inserts

	bodies := g.bodies
	for i, sp := range staged {
		bodies[i] = g.a.nodes.take(lens[i])
		lens[i] = copy(bodies[i], g.stack[sp.start:sp.end])
	}
	for _, in := range inserts {
		body := bodies[in.caller][:lens[in.caller]+1]
		copy(body[in.pos+1:], body[in.pos:])
		body[in.pos] = in.call
		lens[in.caller]++
	}

	// Main processing loop: real programs (text formatters, decoders,
	// simulators) spend their time in one long outer loop whose body
	// touches most of the program, so the concurrently-live substream
	// set is wide. Without it, dynamics concentrate in a few tight
	// loops and conflict aliasing all but disappears — unlike the IBS
	// traces. Only the entry procedure is wrapped: wrapping callees
	// would compound trip counts multiplicatively down the call tree.
	if mainLoop {
		site := b.NewSite(g.loopBehavior())
		bodies[0] = g.single(g.newLoop(site, bodies[0], TripDist{Min: 8, MeanExtra: 3 * cfg.MeanTrips}))
	}

	names := procNames(g.names)
	for i := 0; i < procs; i++ {
		b.AddProc(names[i], bodies[i])
	}
	// A generated program is valid by construction: calls go only to
	// higher procedure indices and every site has a behaviour. So
	// Generate skips Build's Validate walk, a tenth of its time;
	// TestGenerateValidPrograms and FuzzWalkerCompiled validate.
	return b.prog
}

// generator draws one program into arena a, through its Builder b
// over the same arena. Its genScratch is borrowed from a workspace for
// the one call.
type generator struct {
	cfg   GenConfig
	r     rng.Xoshiro256
	b     Builder
	a     *arena
	procs int

	// pickBehavior's draw scale and class bounds: cfg.Mix's total and
	// running sums, each summed as the expression it replaces.
	mixTotal  float64
	mixBounds [4]float64

	*genScratch
}

// genScratch is Generate's working memory. Sequences are built on
// stack, nested ones above the sequence that contains them, and copied
// into the program's node slab once complete, so each sequence is one
// exact run of that slab.
type genScratch struct {
	stack   []Node
	budgets []int
	staged  []span // each procedure's top-level sequence on stack
	lens    []int
	inserts []insertion
	bodies  [][]Node
	names   []string
}

// span is the half-open range [start, end) of a staged sequence.
type span struct{ start, end int }

// insertion places call at position pos of caller's body.
type insertion struct {
	caller, pos int
	call        *Call
}

// release clears the scratch's references into the program it built.
func (s *genScratch) release() {
	clear(s.stack[:cap(s.stack)])
	clear(s.inserts[:cap(s.inserts)])
	clear(s.bodies[:cap(s.bodies)])
	clear(s.names[:cap(s.names)])
	s.stack, s.inserts = s.stack[:0], s.inserts[:0]
}

// reserve sizes the node and behaviour slabs for a program of the
// given site count. The shares are estimates from generated programs:
// about 2.5 sequence nodes per site, and a behaviour mix that follows
// cfg.Mix, loop backedges and dispatch sites counting as biased and
// correlated; a slab that runs short grows by another chunk.
func (g *generator) reserve(sites int) {
	m, a := g.cfg.Mix, g.a
	share := func(w float64) int { return int(float64(sites)*w/m.total()) + sites/16 }
	a.ifs.reserve(sites) // at most one per site
	a.loops.reserve(sites / 8)
	a.jumps.reserve(sites / 4)
	a.nodes.reserve(sites*5/2 + 2*g.procs)
	a.biased.reserve(share(m.StronglyBiased+m.WeaklyBiased+m.Random) + sites/16)
	a.correlated.reserve(share(m.Correlated))
	a.alternating.reserve(share(m.Alternating))
}

// size resizes the per-procedure scratch to procs entries.
func (s *genScratch) size(procs int) {
	s.budgets = resize(s.budgets, procs)
	s.staged = resize(s.staged, procs)
	s.lens = resize(s.lens, procs)
	s.bodies = resize(s.bodies, procs)
	s.names = resize(s.names, procs)
}

func (g *generator) push(n Node) { g.stack = append(g.stack, n) }

// Thresholds of the generator's fixed probabilities, for hit.
var (
	p20, p40, p50 = rng.Threshold(0.2), rng.Threshold(0.4), rng.Threshold(0.5)
	p60, p70, p75 = rng.Threshold(0.6), rng.Threshold(0.7), rng.Threshold(0.75)
)

// hit is r.Bool(p) for a fixed 0 < p < 1 and t = rng.Threshold(p):
// the same draw and outcome (see rng.Xoshiro256.Hit), inlined and
// without a float conversion.
func hit(r *rng.Xoshiro256, t uint64) bool { return r.Uint64()>>11 < t }

// genSeq generates a sequence consuming exactly budget conditional
// sites and returns its run of the node slab.
func (g *generator) genSeq(budget, procIdx, depth int) []Node {
	mark := len(g.stack)
	g.stage(budget, procIdx, depth)
	return g.commit(mark)
}

// single returns the one-node sequence {n}.
func (g *generator) single(n Node) []Node {
	seq := g.a.nodes.take(1)
	seq[0] = n
	return seq
}

// commit moves the sequence staged above mark into the node slab. The
// runs are short, so a loop beats copy's runtime call.
func (g *generator) commit(mark int) []Node {
	staged := g.stack[mark:]
	seq := g.a.nodes.take(len(staged))
	for i, n := range staged {
		seq[i] = n
	}
	g.stack = g.stack[:mark]
	return seq
}

func (g *generator) newIf(site *CondSite, then, els []Node) *If {
	n := g.a.ifs.new()
	*n = If{Site: site, Then: then, Else: els}
	return n
}

func (g *generator) newLoop(site *CondSite, body []Node, trips TripDist) *Loop {
	n := g.a.loops.new()
	*n = Loop{Site: site, Body: body, Trips: trips}
	return n
}

// newBiased, newCorrelated and newAlternating place a behaviour in
// the program's slab and return it by pointer, which boxes nothing.
func (g *generator) newBiased(p float64) Behavior {
	b := g.a.biased.new()
	b.P = p
	return b
}

func (g *generator) newCorrelated(c Correlated) Behavior {
	b := g.a.correlated.new()
	*b = c
	return b
}

func (g *generator) newAlternating(period uint64) Behavior {
	b := g.a.alternating.new()
	b.Period = period
	return b
}

// stage generates a sequence consuming exactly budget conditional
// sites onto the top of the stack. depth bounds structural nesting.
func (g *generator) stage(budget, procIdx, depth int) {
	for budget > 0 {
		// Leading straight-line code.
		if hit(&g.r, p70) {
			g.push(g.b.NewBlock(1 + g.r.Intn(2*g.cfg.MeanBlockSize)))
		}
		// Occasional jump between regions (calls are inserted by
		// Generate after the call tree is chosen).
		if g.r.Bool(g.cfg.CallFraction) {
			g.push(g.b.NewJump())
		}

		// Structural element consuming some of the budget. Nested
		// regions take at most half the remaining budget so that most
		// sites stay on always-executed paths (keeping static-site
		// coverage high in realised traces).
		switch {
		case depth < 2 && budget >= 8 && hit(&g.r, p20):
			// Dispatch: a balanced two-way split over large arms,
			// modelling switch-like per-iteration path selection
			// (character classes, opcode kinds). Each main-loop
			// iteration then touches only part of the program, which
			// keeps typical reuse distances — and hence the capacity
			// aliasing boundary — near the paper's, instead of every
			// iteration sweeping the full static footprint. Half the
			// dispatch sites are history-correlated (run-structured
			// input), half data-dependent.
			var behavior Behavior
			if hit(&g.r, p75) {
				behavior = g.newCorrelated(Correlated{Mask: g.pickMask(), Invert: hit(&g.r, p50), Noise: 0.005})
			} else {
				behavior = g.newBiased(0.3 + 0.4*g.r.Float64())
			}
			site := g.b.NewSite(behavior)
			arm := (budget - 1) / 3
			thenSeq := g.genSeq(arm, procIdx, depth+1)
			elseSeq := g.genSeq(arm, procIdx, depth+1)
			g.push(g.newIf(site, thenSeq, elseSeq))
			budget -= 1 + 2*arm
		case depth < 2 && budget >= 2 && g.r.Bool(g.cfg.LoopFraction):
			// Loop: backedge site plus a body consuming part of the
			// budget. Loop bodies always execute, so they may be big,
			// but nested loops get geometrically shorter trip counts
			// to keep one program activation's dynamic length bounded
			// (trip means multiply along a nest).
			// Wide bodies, moderate trips: a loop cycling a large body
			// keeps hundreds of substreams concurrently hot, which is
			// what makes distinct code regions (and processes) collide
			// in direct-mapped tables the way the IBS traces do.
			inner := (budget+1)/2 + g.r.Intn((budget+3)/4)
			if inner > budget-1 && budget >= 2 {
				inner = budget - 1
			}
			if inner < 1 {
				inner = 1
			}
			body := g.genSeq(inner, procIdx, depth+1)
			site := g.b.NewSite(g.loopBehavior())
			// Trip-count model, chosen for realistic dynamics: interior
			// loops are short FIXED-trip loops (fixed-size scans). A
			// global-history predictor learns them almost perfectly
			// once the history window distinguishes the iterations,
			// and — critically for the aliasing studies — they do not
			// concentrate the dynamic mass at tiny reuse distances:
			// most dynamic branches remain the once-per-main-iteration
			// body branches whose reuse distance is the program's live
			// substream set, as in the IBS traces. Only the per-program
			// main loop added by Generate is long.
			g.push(g.newLoop(site, body, TripDist{Min: 8 + g.r.Intn(30)}))
			budget -= inner + 1
		case depth < 4 && budget >= 3 && hit(&g.r, p40):
			// If/else with nested arms. The larger arm goes on the
			// likely-taken side so nested sites execute often.
			behavior := g.pickBehavior()
			site := g.b.NewSite(behavior)
			remaining := budget - 1
			bigBudget := g.r.Intn(remaining/2 + 1)
			smallBudget := 0
			if remaining-bigBudget > 0 && hit(&g.r, p50) {
				smallBudget = g.r.Intn((remaining-bigBudget)/4 + 1)
			}
			var bigSeq, smallSeq []Node
			if bigBudget > 0 {
				bigSeq = g.genSeq(bigBudget, procIdx, depth+1)
			} else {
				bigSeq = g.single(g.b.NewBlock(1 + g.r.Intn(4)))
			}
			if smallBudget > 0 {
				smallSeq = g.genSeq(smallBudget, procIdx, depth+1)
			}
			thenSeq, elseSeq := bigSeq, smallSeq
			if behavior.Bias() < 0.5 {
				thenSeq, elseSeq = smallSeq, bigSeq
			}
			g.push(g.newIf(site, thenSeq, elseSeq))
			budget -= 1 + bigBudget + smallBudget
		default:
			// Simple two-way branch with an empty-or-tiny arm.
			site := g.b.NewSite(g.pickBehavior())
			var thenSeq []Node
			if hit(&g.r, p60) {
				thenSeq = g.single(g.b.NewBlock(1 + g.r.Intn(4)))
			}
			g.push(g.newIf(site, thenSeq, nil))
			budget--
		}
	}
}

// loopBehavior is unused for the backedge decision itself (trip counts
// come from TripDist), but the site still carries a Bias estimate for
// calibration: loop backedges are mostly taken.
func (g *generator) loopBehavior() Behavior {
	mean := 1 + g.cfg.MeanTrips
	return g.newBiased(1 - 1/mean)
}

func (g *generator) pickBehavior() Behavior {
	x := g.r.Float64() * g.mixTotal
	switch {
	case x < g.mixBounds[0]:
		// Guard/error-check branches: almost always one way. Real
		// integer code is dominated by these, which is what keeps the
		// paper's unaliased misprediction rates in the single digits.
		p := 0.975 + 0.024*g.r.Float64()
		if hit(&g.r, p50) {
			p = 1 - p
		}
		return g.newBiased(p)
	case x < g.mixBounds[1]:
		p := 0.90 + 0.08*g.r.Float64()
		if hit(&g.r, p50) {
			p = 1 - p
		}
		return g.newBiased(p)
	case x < g.mixBounds[2]:
		return g.newCorrelated(Correlated{Mask: g.pickMask(), Invert: hit(&g.r, p50), Noise: 0.005 * g.r.Float64()})
	case x < g.mixBounds[3]:
		return g.newBiased(0.4 + 0.2*g.r.Float64())
	default:
		return g.newAlternating(uint64(8 + g.r.Intn(25)))
	}
}

// pickMask draws a correlation mask of 1-2 history bits, concentrated
// on recent outcomes (60% within the last 4) with a tail reaching back
// MaxHistBits. This matches how real correlation decays with distance
// and gives longer predictor histories a steady accuracy payoff up to
// ~MaxHistBits, as in the paper's history-length sweeps.
func (g *generator) pickMask() uint64 {
	nbits := 1 + g.r.Intn(3)
	var mask uint64
	for i := 0; i < nbits; i++ {
		if hit(&g.r, p40) {
			mask |= 1 << g.r.Intn(4)
		} else {
			mask |= 1 << g.r.Intn(int(g.cfg.MaxHistBits))
		}
	}
	return mask
}

// procNames fills dst with the names proc0, proc1, ... as substrings
// of one string, and returns it.
func procNames(dst []string) []string {
	var buf [20]byte
	var sb strings.Builder
	sb.Grow(len(dst) * len("proc0000"))
	for i := range dst {
		sb.WriteString("proc")
		sb.Write(strconv.AppendInt(buf[:0], int64(i), 10))
	}
	all := sb.String()
	for i := range dst {
		n := len("proc") + len(strconv.AppendInt(buf[:0], int64(i), 10))
		dst[i], all = all[:n], all[n:]
	}
	return dst
}
