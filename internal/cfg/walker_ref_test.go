package cfg

import (
	"fmt"

	"gskew/internal/rng"
	"gskew/internal/trace"
)

// refWalker is the tree-walking interpreter the compiled Walker
// replaced, kept as the reference FuzzWalkerCompiled diffs it against:
// it walks the Program's node tree one event per call, asking every
// site's Behavior through its interface and drawing through Bool and
// TripDist.Sample.

type refFrameKind uint8

const (
	refFrameSeq  refFrameKind = iota // plain sequence (proc body, if arm)
	refFrameLoop                     // loop body; evaluates backedge at end
	refFrameCall                     // callee body; emits return jump at end
)

type refFrame struct {
	seq       []Node
	idx       int
	kind      refFrameKind
	loop      *Loop
	tripsLeft int
	returnPC  uint64
}

type refWalker struct {
	prog    *Program
	r       *rng.Xoshiro256
	stack   []refFrame
	scratch []uint64 // per-site behaviour state
	hist    uint64   // recent outcomes, newest in bit 0
}

func newRefWalker(prog *Program, seed uint64) *refWalker {
	w := &refWalker{
		prog:    prog,
		r:       rng.NewXoshiro256(seed),
		scratch: make([]uint64, len(prog.sites)),
	}
	w.enterProc(prog.Entry, 0, false)
	return w
}

func (w *refWalker) enterProc(idx int, returnPC uint64, isCall bool) {
	kind := refFrameSeq
	if isCall {
		kind = refFrameCall
	}
	w.stack = append(w.stack, refFrame{
		seq:      w.prog.Procs[idx].Body,
		kind:     kind,
		returnPC: returnPC,
	})
}

func (w *refWalker) push(f refFrame) {
	if len(w.stack) >= maxDepth {
		panic(fmt.Sprintf("cfg: walker stack exceeded %d frames; program is not a DAG", maxDepth))
	}
	w.stack = append(w.stack, f)
}

func (w *refWalker) shiftHist(taken bool) {
	w.hist <<= 1
	if taken {
		w.hist |= 1
	}
}

func (w *refWalker) emitCond(site *CondSite, taken bool) trace.Branch {
	w.shiftHist(taken)
	return trace.Branch{PC: site.PC, Taken: taken, Kind: trace.Conditional}
}

func (w *refWalker) emitUncond(pc uint64) trace.Branch {
	w.shiftHist(true)
	return trace.Branch{PC: pc, Taken: true, Kind: trace.Unconditional}
}

func (w *refWalker) Next() (trace.Branch, error) {
	for {
		top := &w.stack[len(w.stack)-1]
		if top.idx >= len(top.seq) {
			// End of this sequence.
			switch top.kind {
			case refFrameLoop:
				site := top.loop.Site
				if top.tripsLeft > 0 {
					top.tripsLeft--
					top.idx = 0
					return w.emitCond(site, true), nil
				}
				w.stack = w.stack[:len(w.stack)-1]
				return w.emitCond(site, false), nil
			case refFrameCall:
				pc := top.returnPC
				w.stack = w.stack[:len(w.stack)-1]
				return w.emitUncond(pc), nil
			default:
				w.stack = w.stack[:len(w.stack)-1]
				if len(w.stack) == 0 {
					// Entry procedure finished; restart it.
					w.enterProc(w.prog.Entry, 0, false)
				}
				continue
			}
		}

		node := top.seq[top.idx]
		top.idx++
		switch n := node.(type) {
		case Block:
			continue
		case *If:
			taken := n.Site.Behavior.Decide(w.r, w.hist, &w.scratch[n.Site.id])
			arm := n.Else
			if taken {
				arm = n.Then
			}
			ev := w.emitCond(n.Site, taken)
			if len(arm) > 0 {
				w.push(refFrame{seq: arm, kind: refFrameSeq})
			}
			return ev, nil
		case *Loop:
			trips := n.Trips.Sample(w.r)
			w.push(refFrame{seq: n.Body, kind: refFrameLoop, loop: n, tripsLeft: trips - 1})
			continue
		case *Call:
			callee := w.prog.Procs[n.Callee]
			w.enterProc(n.Callee, callee.ReturnPC, true)
			return w.emitUncond(n.PC), nil
		case *Jump:
			return w.emitUncond(n.PC), nil
		default:
			panic(fmt.Sprintf("cfg: unknown node type %T", node))
		}
	}
}
