package sim

import (
	"errors"
	"fmt"
	"io"

	"gskew/internal/kernel"
	"gskew/internal/trace"
)

// Trace staging, shared by the serial (and cell-parallel) runner and
// the segmented engine: every trace record becomes a (PC, history,
// outcome) step of one global-history register that unconditional
// branches also shift (the paper's section 3.1), and only conditional
// steps are kept.

// stageSink receives the two events staging cannot handle itself.
type stageSink interface {
	// stepsFull makes room in a full step buffer: the serial runner
	// drains it, the segmented engine grows it. It is called only when
	// more records remain to be staged.
	stepsFull()
	// flushNow resets predictor state at a FlushEvery boundary. It is
	// called when the first conditional after the boundary arrives,
	// before that conditional is staged; a boundary with no later
	// conditional never reaches it.
	flushNow()
}

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

// feed stages branches, calling sink when the buffer fills or a flush
// takes effect. A flush takes effect when the next conditional
// arrives: unconditionals between the boundary and that conditional
// shift a history the flush then wipes.
func (s *stager) feed(branches []trace.Branch, sink stageSink) error {
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
			sink.flushNow()
			s.flushes++
			s.ghr = 0
			s.pending = false
		}
		if len(s.steps) == cap(s.steps) {
			sink.stepsFull()
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

// stageSource feeds all of src to the stager. A SliceSource is staged
// straight from its backing slice; any other source is read a batch at
// a time.
func (s *stager) stageSource(src trace.Source, sink stageSink) error {
	if ss, ok := src.(*trace.SliceSource); ok {
		return s.feed(ss.Drain(), sink)
	}
	buf := make([]trace.Branch, batchSize)
	for {
		n, err := trace.ReadBatch(src, buf)
		if serr := s.feed(buf[:n], sink); serr != nil {
			return serr
		}
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("sim: reading trace: %w", err)
		}
	}
}
