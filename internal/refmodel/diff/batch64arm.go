package diff

import (
	"fmt"

	"gskew/internal/history"
	"gskew/internal/kernel"
	"gskew/internal/predictor"
	"gskew/internal/refmodel"
	"gskew/internal/trace"
)

// checkBatch64 is the bitsliced arm: every conditional steps an
// 8-lane group of fresh, identical implementations one step at a
// time, and every lane must agree with the specification. Lanes are
// independent instances, so any cross-lane smearing in the bitplane
// arithmetic (a carry into the wrong lane, a mask off by one bit)
// diverges some lane even when lane 0 happens to be right.
const batch64Lanes = 8

func checkBatch64(tr []trace.Branch, c Cell, build ImplBuilder) (*Divergence, error) {
	spec, err := c.Spec()
	if err != nil {
		return nil, err
	}
	k := c.Hist
	if c.Family == "bimodal" {
		k = 0
	}
	lanes := make([]predictor.Predictor, batch64Lanes)
	hists := make([]uint, batch64Lanes)
	for i := range lanes {
		if lanes[i], err = build(c); err != nil {
			return nil, err
		}
		hists[i] = k
	}
	g, ok := kernel.CompileGroup64(lanes, hists)
	if !ok {
		return nil, fmt.Errorf("diff: %s implementation does not compile to a bitsliced group", c)
	}

	specGHR := refmodel.NewSpecHistory(k)
	implGHR := history.NewGlobal(k)
	step := make([]kernel.Step, 1)
	mis := make([]int, batch64Lanes)
	for i, b := range tr {
		switch b.Kind {
		case trace.Conditional:
			sh, ih := specGHR.Value(), implGHR.Bits()
			if sh != ih {
				return &Divergence{Step: i, Record: b, HistMismatch: true}, nil
			}
			specPred := spec.Predict(b.PC, sh)
			step[0] = kernel.Step{PC: b.PC, Hist: ih, Taken: b.Taken}
			for j := range mis {
				mis[j] = 0
			}
			g.StepBatch64(step, mis)
			for j := range mis {
				implPred := b.Taken != (mis[j] == 1)
				if implPred != specPred {
					return &Divergence{
						Step: i, Record: b, Hist: sh,
						SpecPred: specPred, ImplPred: implPred,
					}, nil
				}
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
