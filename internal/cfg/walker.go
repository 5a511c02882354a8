package cfg

// The walker runs a Program compiled to a flat op stream. NewWalker
// lowers the node tree once: an If becomes one conditional op whose
// not-taken edge jumps over the Then arm (a goto ends a Then arm that
// has an Else), a Loop becomes a loop-enter op before its body and a
// loop-end op (the backedge) after it, a Call and a Jump become one op
// each, and every procedure ends in a return op. Blocks emit nothing
// and compile to nothing. Each op is 32 bytes and carries its site's
// parameters; per-site state (Alternating counters, custom behaviours
// and their scratch words) lives in side tables. Fill then runs the
// ops with the program counter, the frame stack, the outcome history
// and the generator state in locals.
//
// The rule that keeps every record identical to walking the tree: an
// op draws from the generator exactly when, as often as and in the
// order that the tree's Behavior.Decide and TripDist.Sample calls
// would. Biased, Correlated and Alternating sites are decided inline,
// comparing a draw's top 53 bits with rng.Threshold(p), which agrees
// with Bool(p) draw for draw; the cases where Bool makes no draw (p <=
// 0 or p >= 1, so Noise >= 1 flips without one) compile to ops that
// make none. Any other Behavior is asked through Decide, with the
// generator written back before and reloaded after the call.

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"gskew/internal/rng"
	"gskew/internal/trace"
)

// maxDepth bounds the walker's frame stack, which holds one frame per
// active loop and per active call. Program.Validate guarantees a call
// DAG, so the depth is bounded by the program's nesting; this limit is
// a defence against builder bugs.
const maxDepth = 4096

type opcode uint8

// Conditional ops emit a conditional record; taken continues at the
// next op, not taken at op.next.
const (
	opIfConst       opcode = iota // fixed outcome (Biased with P <= 0 or P >= 1): taken iff a != 0
	opIfBiased                    // Biased: taken iff Hit(a)
	opIfCorrelated                // Correlated: parity(hist & a) != inv, flipped iff b != 0 && Hit(b)
	opIfAlternating               // Alternating: period a, count in scratch[b]
	opIfCustom                    // any other Behavior: custom[a]
	opGoto                        // continue at next; emits nothing
	opLoopEnter                   // push trips-1: trips = a, plus GeometricBelow(b)-1 when b != 0
	opLoopSample                  // push trips-1: trips = TripDist{Min: a, MeanExtra: b as float bits}.Sample
	opLoopEnd                     // backedge: taken (back to next) while trips remain, else pop
	opCall                        // emit the call, push the return op, continue at next (callee)
	opReturn                      // pop and emit the return; at the entry's end restart at next
	opJump                        // emit the jump
)

// op is one compiled instruction, 32 bytes.
type op struct {
	code opcode
	inv  bool   // opIfCorrelated: Invert, folded with Noise >= 1
	next int32  // control target: else arm, loop body, callee or entry
	pc   uint64 // PC of the record the op emits
	a, b uint64 // per-opcode parameters, listed with the opcodes
}

var errDepth = fmt.Sprintf("cfg: walker stack exceeded %d frames; program is not a DAG", maxDepth)

// Walker runs a Program, producing an endless branch stream: when the
// entry procedure returns, it is immediately re-entered (modelling a
// server/event loop, which is how long traces behave). Walker
// implements trace.BatchSource but never returns io.EOF; callers bound
// the stream themselves. It keeps only the compiled program, not the
// node tree.
type Walker struct {
	ops     []op
	custom  []Behavior // behaviours not compiled inline, asked through Decide
	scratch []uint64   // Alternating and custom per-site state
	stack   []int      // loop trips left and return op indices
	sp      int
	pc      int32
	hist    uint64 // recent outcomes, newest in bit 0
	r       *rng.Xoshiro256
}

// NewWalker compiles prog and returns a Walker over it seeded with
// seed.
func NewWalker(prog *Program, seed uint64) *Walker {
	c := compiler{prog: prog, slot: map[int]int{}}
	w := c.compile()
	w.r = rng.NewXoshiro256(seed)
	return w
}

// History returns the walker's internal outcome history register
// (newest outcome in bit 0). Exposed for correlated-behaviour tests.
func (w *Walker) History() uint64 { return w.hist }

// Fill writes the next len(dst) records of the stream to dst.
func (w *Walker) Fill(dst []trace.Branch) {
	ops, stack, scratch := w.ops, w.stack, w.scratch
	pc, sp, hist := w.pc, w.sp, w.hist
	r := *w.r
	for i := 0; i < len(dst); {
		o := &ops[pc]
		var taken bool
		switch o.code {
		case opIfConst:
			taken = o.a != 0
		case opIfBiased:
			taken, r = r.Hit(o.a)
		case opIfCorrelated:
			taken = bits.OnesCount64(hist&o.a)&1 != 0 != o.inv
			if o.b != 0 {
				var flip bool
				flip, r = r.Hit(o.b)
				taken = taken != flip
			}
		case opIfAlternating:
			n := &scratch[o.b]
			taken = (*n/o.a)%2 == 0
			*n++
		case opIfCustom:
			*w.r = r
			taken = w.custom[o.a].Decide(w.r, hist, &scratch[o.b])
			r = *w.r
		case opGoto:
			pc = o.next
			continue
		case opLoopEnter, opLoopSample:
			if sp == len(stack) {
				panic(errDepth)
			}
			trips := int(o.a)
			if o.code == opLoopSample {
				*w.r = r
				trips = TripDist{Min: trips, MeanExtra: math.Float64frombits(o.b)}.Sample(w.r)
				r = *w.r
			} else if o.b != 0 {
				trips += r.GeometricBelow(o.b) - 1
			}
			stack[sp] = trips - 1
			sp++
			pc++
			continue
		case opLoopEnd:
			if stack[sp-1] > 0 {
				stack[sp-1]--
				dst[i] = trace.Branch{PC: o.pc, Taken: true, Kind: trace.Conditional}
				hist = hist<<1 | 1
				pc = o.next
			} else {
				sp--
				dst[i] = trace.Branch{PC: o.pc, Taken: false, Kind: trace.Conditional}
				hist <<= 1
				pc++
			}
			i++
			continue
		case opCall:
			if sp == len(stack) {
				panic(errDepth)
			}
			stack[sp] = int(pc) + 1
			sp++
			dst[i] = trace.Branch{PC: o.pc, Taken: true, Kind: trace.Unconditional}
			hist = hist<<1 | 1
			i++
			pc = o.next
			continue
		case opReturn:
			if sp == 0 {
				// The entry procedure finished; restart it.
				pc = o.next
				continue
			}
			sp--
			dst[i] = trace.Branch{PC: o.pc, Taken: true, Kind: trace.Unconditional}
			hist = hist<<1 | 1
			i++
			pc = int32(stack[sp])
			continue
		case opJump:
			dst[i] = trace.Branch{PC: o.pc, Taken: true, Kind: trace.Unconditional}
			hist = hist<<1 | 1
			i++
			pc++
			continue
		}
		dst[i] = trace.Branch{PC: o.pc, Taken: taken, Kind: trace.Conditional}
		var t uint64
		next := o.next
		if taken {
			t, next = 1, pc+1
		}
		hist = hist<<1 | t
		pc = next
		i++
	}
	*w.r = r
	w.pc, w.sp, w.hist = pc, sp, hist
}

// Next implements trace.Source: a one-record Fill. It never returns an
// error.
func (w *Walker) Next() (trace.Branch, error) {
	var b [1]trace.Branch
	w.Fill(b[:])
	return b[0], nil
}

// NextBatch implements trace.BatchSource: it fills dst completely.
func (w *Walker) NextBatch(dst []trace.Branch) (int, error) {
	w.Fill(dst)
	return len(dst), nil
}

// Emit appends n branch events to dst and returns the extended slice.
func (w *Walker) Emit(dst []trace.Branch, n int) []trace.Branch {
	if n <= 0 {
		return dst
	}
	dst = slices.Grow(dst, n)
	w.Fill(dst[len(dst) : len(dst)+n])
	return dst[:len(dst)+n]
}

// EmitConditionals appends events until n conditional branches have
// been produced (unconditional branches in between are included). Each
// round emits as many events as conditionals are still owed, so the
// stream stops on the n-th conditional.
func (w *Walker) EmitConditionals(dst []trace.Branch, n int) []trace.Branch {
	for n > 0 {
		start := len(dst)
		dst = w.Emit(dst, n)
		for _, b := range dst[start:] {
			if b.Kind == trace.Conditional {
				n--
			}
		}
	}
	return dst
}

// compiler lowers a Program to a Walker's op stream.
type compiler struct {
	prog   *Program
	ops    []op
	custom []Behavior
	slot   map[int]int // site id -> scratch index, shared by reused sites
	calls  []int       // op indices of calls, whose next is patched to the callee
	// Frame depth bookkeeping: loops is the loop nesting at the op
	// being compiled, depth the deepest frame stack seen in the
	// current procedure, and procDepth each compiled procedure's.
	loops, depth int
	procDepth    []int
}

func (c *compiler) compile() *Walker {
	procs := c.prog.Procs
	// Generated programs compile to about 1.4 ops per site.
	c.ops = make([]op, 0, len(c.prog.sites)*3/2+2*len(procs))
	starts := make([]int32, len(procs))
	c.procDepth = make([]int, len(procs))
	// Callees have higher indices than their callers, so compiling in
	// reverse knows each callee's frame depth before its calls.
	for i := len(procs) - 1; i >= 0; i-- {
		c.loops, c.depth = 0, 0
		body := int32(len(c.ops))
		c.seq(procs[i].Body)
		c.ops = append(c.ops, op{code: opReturn, pc: procs[i].ReturnPC})
		starts[i] = body
		c.procDepth[i] = c.depth
	}
	for _, i := range c.calls {
		c.ops[i].next = starts[c.ops[i].next]
	}
	entry := starts[c.prog.Entry]
	for i := range c.ops {
		switch o := &c.ops[i]; o.code {
		case opReturn:
			o.next = entry
		case opIfConst, opIfBiased, opIfCorrelated, opIfAlternating, opIfCustom, opGoto:
			// Thread jumps to gotos through to the goto's target.
			for c.ops[o.next].code == opGoto {
				o.next = c.ops[o.next].next
			}
		}
	}
	return &Walker{
		ops:     c.ops,
		custom:  c.custom,
		scratch: make([]uint64, len(c.slot)),
		stack:   make([]int, min(c.procDepth[c.prog.Entry], maxDepth)),
		pc:      entry,
	}
}

func (c *compiler) emit(o op) int {
	c.ops = append(c.ops, o)
	return len(c.ops) - 1
}

// frames notes that the frame stack reaches c.loops plus extra frames.
func (c *compiler) frames(extra int) {
	c.depth = max(c.depth, c.loops+extra)
}

func (c *compiler) seq(seq []Node) {
	for _, node := range seq {
		switch n := node.(type) {
		case *If:
			i := c.emit(c.site(n.Site))
			c.seq(n.Then)
			// Not taken skips the Then code and the goto that ends it.
			g := c.emit(op{code: opGoto})
			c.ops[i].next = int32(g + 1)
			c.seq(n.Else)
			if len(c.ops) == g+1 {
				// No Else code: drop the goto over it.
				c.ops = c.ops[:g]
				c.ops[i].next = int32(g)
			} else {
				c.ops[g].next = int32(len(c.ops))
			}
		case *Loop:
			c.emit(loopEnter(n.Trips))
			c.loops++
			c.frames(0)
			body := int32(len(c.ops))
			c.seq(n.Body)
			c.loops--
			c.emit(op{code: opLoopEnd, pc: n.Site.PC, next: body})
		case *Call:
			c.calls = append(c.calls, c.emit(op{code: opCall, pc: n.PC, next: int32(n.Callee)}))
			c.frames(1 + c.procDepth[n.Callee])
		case *Jump:
			c.emit(op{code: opJump, pc: n.PC})
		}
	}
}

// site compiles a conditional site to its op, next still unset.
func (c *compiler) site(s *CondSite) op {
	o := op{pc: s.PC}
	switch b := s.Behavior.(type) {
	case Biased:
		switch {
		case b.P <= 0:
			o.code = opIfConst
		case b.P >= 1:
			o.code, o.a = opIfConst, 1
		default:
			o.code, o.a = opIfBiased, rng.Threshold(b.P)
		}
	case Correlated:
		o.code, o.a, o.inv = opIfCorrelated, b.Mask, b.Invert
		switch {
		case b.Noise >= 1:
			o.inv = !o.inv // flips every outcome, without a draw
		case b.Noise > 0:
			o.b = rng.Threshold(b.Noise)
		}
	case Alternating:
		o.code, o.a, o.b = opIfAlternating, max(b.Period, 1), uint64(c.scratch(s))
	default:
		c.custom = append(c.custom, b)
		o.code, o.a, o.b = opIfCustom, uint64(len(c.custom)-1), uint64(c.scratch(s))
	}
	return o
}

// scratch returns the scratch index of site s.
func (c *compiler) scratch(s *CondSite) int {
	i, ok := c.slot[s.id]
	if !ok {
		i = len(c.slot)
		c.slot[s.id] = i
	}
	return i
}

// loopEnter compiles a loop's trip distribution to its enter op.
func loopEnter(d TripDist) op {
	if d.MeanExtra > 0 {
		p := 1 / (1 + d.MeanExtra)
		if p <= 0 {
			// Geometric panics for p == 0; let it, when the loop runs.
			return op{code: opLoopSample, a: uint64(d.Min), b: math.Float64bits(d.MeanExtra)}
		}
		if p < 1 {
			return op{code: opLoopEnter, a: uint64(max(d.Min, 1)), b: rng.Threshold(p)}
		}
		// p == 1: Geometric returns 1 without a draw.
	}
	return op{code: opLoopEnter, a: uint64(max(d.Min, 1))}
}
