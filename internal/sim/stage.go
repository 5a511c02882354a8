package sim

import (
	"fmt"

	"gskew/internal/kernel"
	"gskew/internal/trace"
)

// Trace staging: every trace record becomes a (PC, history, outcome)
// step of one global-history register that unconditional branches
// also shift (the paper's section 3.1), and only conditional steps are
// kept. The runner drains the step buffer whenever it fills and at
// every FlushEvery boundary.

// stager is the staging state of one run. steps holds the staged
// conditionals not yet consumed, and its capacity bounds how many a
// single pass of stageRecords may stage.
type stager struct {
	steps   []kernel.Step
	ghr     uint64
	ghrMask uint64
	flush   int  // Options.FlushEvery
	pending bool // a flush boundary was crossed; it applies at the next conditional
	cond    int  // conditionals staged, drained ones included
	uncond  int
	flushes int // flushes that took effect
}

// stageRecords is the staging loop. It writes every record's step to
// dst[w] unconditionally and advances w only past conditionals
// (1^Kind), shifting Taken|Kind into the history, so the loop has no
// branch on record data; an unconditional's step is overwritten by the
// next record. It stops when src is exhausted or w reaches len(dst) —
// the caller sizes dst to the nearer of a full buffer and the next
// flush boundary, so one limit covers both. The state lives in
// locals and parameters, never behind a pointer, so it stays in
// registers. It returns the new write index, the records consumed, the
// new history and the OR of every Kind seen, which the caller checks
// once per pass instead of once per record.
func stageRecords(dst []kernel.Step, w int, src []trace.Branch, ghr, mask uint64) (int, int, uint64, trace.Kind) {
	var kinds trace.Kind
	i := 0
	for ; i < len(src) && uint(w) < uint(len(dst)); i++ {
		// Every field is read before dst is written: dst might alias
		// src as far as the compiler knows, and a later read would be a
		// reload.
		pc, taken, kind := src[i].PC, src[i].Taken, src[i].Kind
		k := uint64(kind & 1)
		dst[w] = kernel.Step{PC: pc, Hist: ghr, Taken: taken}
		ghr = (ghr<<1 | (b2u(taken) | k)) & mask
		w += int(k ^ 1)
		kinds |= kind
	}
	return w, i, ghr, kinds
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// feed stages branches, draining the buffer when it fills and
// flushing the predictors when a flush takes effect. A flush takes
// effect when the next conditional arrives: unconditionals between the
// boundary and that conditional shift a history the flush then wipes,
// and a boundary with no later conditional never flushes.
func (r *manyRunner) feed(branches []trace.Branch) error {
	s := &r.stager
	for len(branches) > 0 {
		if s.pending {
			j := 0
			var kinds trace.Kind
			for j < len(branches) && branches[j].Kind != trace.Conditional {
				kinds |= branches[j].Kind
				j++
			}
			if kinds > trace.Unconditional {
				return badKind(branches[:j])
			}
			s.uncond += j
			branches = branches[j:]
			if len(branches) == 0 {
				return nil
			}
			r.flushNow()
			s.flushes++
			s.ghr = 0
			s.pending = false
		}
		if len(s.steps) == cap(s.steps) {
			// Called only when more records remain to be staged.
			r.drain()
		}
		limit := cap(s.steps)
		if s.flush > 0 {
			limit = min(limit, len(s.steps)+s.flush-s.cond%s.flush)
		}
		w0 := len(s.steps)
		w, n, ghr, kinds := stageRecords(s.steps[:limit], w0, branches, s.ghr, s.ghrMask)
		if kinds > trace.Unconditional {
			return badKind(branches[:n])
		}
		s.steps = s.steps[:w]
		s.ghr = ghr
		s.cond += w - w0
		s.uncond += n - (w - w0)
		branches = branches[n:]
		if s.flush > 0 && w > w0 && s.cond%s.flush == 0 {
			s.pending = true
		}
	}
	return nil
}

// badKind returns the error for the first record in branches whose
// Kind is neither Conditional nor Unconditional.
func badKind(branches []trace.Branch) error {
	for _, b := range branches {
		if b.Kind > trace.Unconditional {
			return fmt.Errorf("sim: unknown branch kind %d", b.Kind)
		}
	}
	panic("sim: badKind called without a bad record")
}

// stageSource feeds all of src to the runner through trace.Blocks: a
// SliceSource is staged straight from its backing slice, a
// trace.Producer (a recorded algorithm) straight from each block it
// pushes, which is never copied or kept, and any other source a batch
// at a time.
func (r *manyRunner) stageSource(src trace.Source) error {
	return trace.Blocks(src, r.feed)
}
