package diff

import (
	"fmt"
	"io"
	"slices"

	"gskew/internal/predictor"
	"gskew/internal/refmodel"
	"gskew/internal/trace"
)

// This file injects deliberate faults into otherwise-correct
// implementations and checks the differential harness catches and
// shrinks them. It is the harness's own regression test: a verifier
// that cannot find a planted off-by-one cannot be trusted to find a
// real one.

// faultWrap wraps a correct implementation with a fault applied to the
// (addr, hist) pair of one of the two calls. It deliberately does NOT
// implement Stepper: the faults model a divergence between the read
// and write paths, which only exists when the two are separate calls.
type faultWrap struct {
	predictor.Predictor
	kind string
}

// Update applies the fault on the training path.
func (m *faultWrap) Update(addr, hist uint64, taken bool) {
	switch m.kind {
	case "addr-off-by-one":
		// The classic index off-by-one: the trained entry is the
		// neighbour of the predicted one.
		m.Predictor.Update(addr+1, hist, taken)
	case "hist-off-by-one":
		// History register skewed by one outcome on the write path.
		m.Predictor.Update(addr, hist>>1, taken)
	default:
		m.Predictor.Update(addr, hist, taken)
	}
}

// Mutant names a fault that can be injected into a cell's
// implementation.
type Mutant struct {
	// Name identifies the fault, e.g. "addr-off-by-one".
	Name string
	// Build constructs the faulty implementation for a cell.
	Build ImplBuilder
	// Planted marks a fault planted inside the implementation (not
	// wrapped around its calls). Compiled kernels read the predictor's
	// own state and hashes, so the selftest also checks such a fault
	// on the kernel arm of cells that have one.
	Planted bool
}

// Mutants returns the standard injected-fault set. A Build returns
// errMutantInapplicable for cells whose index function is insensitive
// to the perturbed input (e.g. the address for a gselect table fully
// indexed by history), where the fault would be unobservable by
// construction.
func Mutants() []Mutant {
	wrap := func(kind string) ImplBuilder {
		return func(c Cell) (predictor.Predictor, error) {
			switch kind {
			case "addr-off-by-one":
				if c.Family == "gselect" && c.Hist >= c.N {
					return nil, errMutantInapplicable
				}
			case "hist-off-by-one":
				if c.Family == "bimodal" || c.Hist == 0 {
					return nil, errMutantInapplicable
				}
			}
			p, err := c.Impl()
			if err != nil {
				return nil, err
			}
			return &faultWrap{Predictor: p, kind: kind}, nil
		}
	}
	tamper := func(name string, families []string, plant func(predictor.Predictor) bool) Mutant {
		// Faults planted inside a real implementation (as opposed to
		// wrapped around it): the predictor's own tamper hook flips one
		// internal detail, and both its read and write paths see the
		// flip — exactly the shape of an implementation bug, which only
		// the independent specification can expose.
		return Mutant{Name: name, Planted: true, Build: func(c Cell) (predictor.Predictor, error) {
			if !slices.Contains(families, c.Family) {
				return nil, errMutantInapplicable
			}
			p, err := c.Impl()
			if err != nil {
				return nil, err
			}
			if !plant(p) {
				return nil, errMutantInapplicable
			}
			return p, nil
		}}
	}
	return []Mutant{
		{Name: "addr-off-by-one", Build: wrap("addr-off-by-one")},
		{Name: "hist-off-by-one", Build: wrap("hist-off-by-one")},
		tamper("tage-fold-off-by-one", []string{"tage"}, predictor.TamperTAGEFold),
		tamper("2bcgskew-meta-flip", []string{"2bcgskew"}, predictor.TamperTwoBcMeta),
		tamper("perceptron-theta-sign-flip", []string{"perceptron"}, predictor.TamperPerceptronTraining),
		tamper("assoc-lru-evicts-mru", []string{"assoc-lru"}, predictor.TamperAssocLRUEvictMRU),
		tamper("unaliased-strong-start", []string{"unaliased"}, predictor.TamperUnaliasedStrongStart),
		tamper("mbank-rotation-off-by-one", []string{"gskewed"}, predictor.TamperSkewRotation),
		tamper("shared-hyst-private", []string{"gskewed", "egskew"}, predictor.TamperSharedHystPrivate),
		{Name: "policy-flip", Build: func(c Cell) (predictor.Predictor, error) {
			// The implementation silently uses the other update policy
			// (or, for single-table cells, one less history bit).
			mutated := c
			switch c.Family {
			case "gskewed", "egskew":
				mutated.Partial = !c.Partial
			default:
				if c.Hist == 0 {
					return nil, errMutantInapplicable
				}
				mutated.Hist = c.Hist - 1
			}
			return mutated.Impl()
		}},
	}
}

// errMutantInapplicable marks a (cell, mutant) pair with no meaningful
// fault to inject (e.g. shortening a zero-bit history).
var errMutantInapplicable = fmt.Errorf("diff: mutant inapplicable to cell")

// SelfTestResult records one (cell, mutant) injection outcome.
type SelfTestResult struct {
	Cell   Cell
	Mutant string
	// Caught reports whether the harness observed a divergence.
	Caught bool
	// ShrunkLen is the length of the minimised counterexample.
	ShrunkLen int
}

// kernelLUTFault is the fault planted into the compiled-kernel path:
// an off-by-one (low-bit flip) in one entry of one bank's V1
// half-table. Bank 1 is LUT-indexed in every compiled three-bank
// organisation (bank 0 is address-truncated in the enhanced form); a
// wider skew takes the fault in its last bank, past the three
// canonical ones. The entry is the V1 (the vector's low n bits) of
// tr's first conditional branch, so the trace is known to read the
// faulted entry whatever its seed; a fixed entry is reached only when
// the vector's low bits happen to match it. The vector is the spec's
// (refmodel.Vector over the spec history), not the kernel's. Under
// shared hysteresis the flipped bit is the lowest group bit: moving an
// entry to its neighbour inside one hysteresis group relabels a
// prediction bit that usually tracks the same stream, which a trace
// rarely tells apart.
func kernelLUTFault(c Cell, tr []trace.Branch) KernelFault {
	bank := 1
	if c.Banks > 3 {
		bank = c.Banks - 1
	}
	k := uint(c.Hist)
	ghr := refmodel.NewSpecHistory(k)
	var v1 uint64
	for _, b := range tr {
		if b.Kind == trace.Conditional {
			v1 = refmodel.Vector(b.PC, ghr.Value(), k) & (1<<c.N - 1)
			break
		}
		ghr.Shift(true)
	}
	return KernelFault{Bank: bank, Half: 0, Entry: v1, Delta: 1 << c.SharedHyst}
}

// kernelJointFault is the fault planted into a compiled kernel's joint
// transition table: the miss bit flipped in the entry a taken-biased
// branch settles in — every direction counter saturated taken
// (2Bc-gskew's META at its initial weakly-taken state, choosing the
// majority) and the outcome taken — so the kernel counts a mispredict
// where the vote was right. The index layouts are documented in
// internal/kernel/joint.go.
func kernelJointFault(c Cell) KernelFault {
	if c.Family == "2bcgskew" {
		return KernelFault{Joint: true, Field: 4, Entry: 3 | 3<<2 | 3<<4 | 2<<6 | 1<<8, Delta: 1}
	}
	max := uint64(1)<<c.Ctr - 1
	return KernelFault{Joint: true, Field: 3, Entry: max | max<<4 | max<<8 | 1<<12, Delta: 1}
}

// namedKernelFault is one fault planted into a compiled kernel.
type namedKernelFault struct {
	name  string
	fault KernelFault
}

// kernelFaults lists the faults the selftest plants into the cell's
// compiled form for a replay of tr: the LUT off-by-one for the skewed
// families, and the joint-table miss flip for the three-bank skewed
// and 2Bc-gskew joint tables (kernel.TamperJoint's layouts).
func kernelFaults(c Cell, tr []trace.Branch) []namedKernelFault {
	switch c.Family {
	case "gskewed", "egskew":
		if c.Banks > 3 {
			return []namedKernelFault{{"kernel-lut-off-by-one", kernelLUTFault(c, tr)}}
		}
		return []namedKernelFault{
			{"kernel-lut-off-by-one", kernelLUTFault(c, tr)},
			{"kernel-joint-miss-flip", kernelJointFault(c)},
		}
	case "2bcgskew":
		return []namedKernelFault{{"kernel-joint-miss-flip", kernelJointFault(c)}}
	}
	return nil
}

// SelfTest injects every applicable mutant into a representative cell
// subset and verifies the harness both catches the fault and shrinks
// the witness trace to at most maxShrunk records. Every mutant runs on
// the predict/update path; planted mutants also run on the kernel path
// of cells that compile (reported as "<name>/kernel"), and skewed and
// 2Bc-gskew cells additionally get faults planted into their compiled
// kernel's tables (kernelFaults), checked on the kernel path. It
// returns an error listing every escape (a mutant the harness failed
// to catch) or any counterexample that failed to shrink below the
// bound.
func SelfTest(cells []Cell, branches int, seed uint64, maxShrunk int, log io.Writer) ([]SelfTestResult, error) {
	var results []SelfTestResult
	var failures []string
	record := func(c Cell, name string, res SelfTestResult) {
		results = append(results, res)
		switch {
		case !res.Caught:
			failures = append(failures, fmt.Sprintf("%s/%s escaped", c, name))
		case res.ShrunkLen > maxShrunk:
			failures = append(failures, fmt.Sprintf("%s/%s shrunk to %d records (bound %d)",
				c, name, res.ShrunkLen, maxShrunk))
		}
		if log != nil {
			status := "ESCAPED"
			if res.Caught {
				status = fmt.Sprintf("caught, shrunk to %d records", res.ShrunkLen)
			}
			fmt.Fprintf(log, "%-28s %-27s %s\n", c, name, status)
		}
	}
	for i, c := range cells {
		tr, err := TraceFor(seed+uint64(i), branches)
		if err != nil {
			return results, err
		}
		for _, m := range Mutants() {
			if _, err := m.Build(c); err == errMutantInapplicable {
				continue
			}
			paths := []Path{PathPair}
			if m.Planted && c.PathApplies(PathKernel) {
				paths = append(paths, PathKernel)
			}
			for _, path := range paths {
				name := m.Name
				if path == PathKernel {
					name += "/kernel"
				}
				div, err := CheckBuilt(tr, c, m.Build, path)
				if err != nil {
					return results, fmt.Errorf("diff: selftest %s/%s: %w", c, name, err)
				}
				res := SelfTestResult{Cell: c, Mutant: name, Caught: div != nil}
				if div != nil {
					res.ShrunkLen = len(ShrinkBuilt(tr, c, m.Build, path))
				}
				record(c, name, res)
			}
		}
		for _, kf := range kernelFaults(c, tr) {
			div, err := CheckKernelTampered(tr, c, kf.fault)
			if err != nil {
				return results, fmt.Errorf("diff: selftest %s/%s: %w", c, kf.name, err)
			}
			res := SelfTestResult{Cell: c, Mutant: kf.name, Caught: div != nil}
			if div != nil {
				res.ShrunkLen = len(ShrinkKernelTampered(tr, c, kf.fault))
			}
			record(c, kf.name, res)
		}
	}
	if len(failures) > 0 {
		return results, fmt.Errorf("diff: selftest failed: %v", failures)
	}
	return results, nil
}

// WriteCounterexample renders a shrunk counterexample in the text
// trace format, preceded by a replay comment naming the cell, path and
// seed; `verify -cell <name> -seed <seed>` replays the full trace it
// was shrunk from.
func WriteCounterexample(w io.Writer, c Cell, seed uint64, path Path, tr []trace.Branch) error {
	if _, err := fmt.Fprintf(w, "# cell %s path %s seed %d (%d records)\n", c, path, seed, len(tr)); err != nil {
		return err
	}
	return trace.WriteText(w, trace.NewSliceSource(tr))
}
