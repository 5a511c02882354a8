// Command verify is the differential verification harness: it drives
// the optimized predictors against the independent executable paper
// specification in internal/refmodel, over randomized traces, across
// a sweep of configurations, and reports any divergence as a shrunk,
// replayable counterexample.
//
// Examples:
//
//	verify -sweep                 # the full matrix (the CI tier)
//	verify -sweep -branches 250000 -seed 7
//	verify -cell gskewed/n8/h10/c2/partial -seed 3
//	verify -selftest              # inject faults, prove they are caught
//	verify -list                  # name every sweep cell
//
// On a divergence the tool prints the cell, the implementation path
// (predict/update pair, fused step or compiled kernel), the trace seed
// and a minimal counterexample in the text trace format, then exits 1.
// Re-running with the printed -cell and -seed reproduces the failure
// exactly.
package main

import (
	"fmt"
	"io"

	"gskew/internal/cli"
	"gskew/internal/refmodel/diff"
)

func main() { cli.Main("verify", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("verify", stderr)
	var (
		sweep    = fs.Bool("sweep", false, "verify every cell of the default sweep")
		codec    = fs.Bool("codec", false, "verify the trace codecs: every sweep cell replayed from varint, columnar and mmap sources")
		cellName = fs.String("cell", "", "verify a single cell by name (see -list)")
		selftest = fs.Bool("selftest", false, "inject deliberate faults and require the harness to catch and shrink them")
		list     = fs.Bool("list", false, "list the sweep cells and exit")
		branches = fs.Int("branches", 60000, "trace length per cell, in conditional branches")
		seed     = fs.Uint64("seed", 1, "base trace seed (cell i of a sweep uses seed+i)")
		maxCE    = fs.Int("max-counterexample", 50, "selftest: maximum acceptable shrunk counterexample length")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *list:
		for _, c := range diff.DefaultSweep() {
			fmt.Fprintln(stdout, c)
		}
		return nil

	case *selftest:
		cells := selftestCells()
		fmt.Fprintf(stdout, "injecting faults into %d cells (%d branches each, seed %d):\n",
			len(cells), *branches, *seed)
		_, err := diff.SelfTest(cells, *branches, *seed, *maxCE, stdout)
		if err != nil {
			return err
		}
		if err := diff.CodecSelfTest(*branches, *seed, stdout); err != nil {
			return err
		}
		if err := diff.RecorderSelfTest(*seed, stdout); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "selftest ok: every injected fault caught and shrunk")
		return nil

	case *cellName != "":
		c, err := diff.CellByName(*cellName)
		if err != nil {
			return cli.Usagef("%v", err)
		}
		res, err := diff.VerifyCell(c, *seed, *branches)
		if err != nil {
			return err
		}
		return summarise(stdout, []diff.CellResult{res})

	case *codec:
		cells := diff.DefaultSweep()
		records, err := diff.VerifyCodecs(cells, *branches, *seed, stdout)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "codec arm ok: %d cells replayed from varint, columnar and mmap sources, %d records checked, 0 divergences\n",
			len(cells), records)
		return nil

	case *sweep:
		results, err := diff.Sweep(diff.DefaultSweep(), diff.Options{
			Branches: *branches, Seed: *seed, Log: stdout,
		})
		if err != nil {
			return err
		}
		return summarise(stdout, results)

	default:
		return cli.Usagef("specify one of -sweep, -codec, -cell, -selftest or -list")
	}
}

// summarise prints totals and any counterexamples, and returns an
// error (so the process exits nonzero) if anything diverged.
func summarise(stdout io.Writer, results []diff.CellResult) error {
	totalSteps, diverged := 0, 0
	for _, r := range results {
		totalSteps += r.Steps
		if r.Div == nil {
			continue
		}
		diverged++
		fmt.Fprintf(stdout, "\nDIVERGENCE in %s: %v\n", r.Cell, r.Div)
		fmt.Fprintf(stdout, "reproduce with: verify -cell %s -seed %d -branches %d\n",
			r.Cell, r.Seed, r.Branches)
		if err := diff.WriteCounterexample(stdout, r.Cell, r.Seed, r.Path, r.Shrunk); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "verified %d cells, %d trace records checked, %d divergences\n",
		len(results), totalSteps, diverged)
	if diverged > 0 {
		return fmt.Errorf("%d of %d cells diverged from the paper specification", diverged, len(results))
	}
	return nil
}

// selftestCells is the representative subset faults are injected into:
// one cell per family and reference predictor, covering both skewed
// policies.
func selftestCells() []diff.Cell {
	return []diff.Cell{
		{Family: "bimodal", N: 8, Ctr: 2},
		{Family: "gshare", N: 8, Hist: 6, Ctr: 2},
		{Family: "gselect", N: 8, Hist: 4, Ctr: 2},
		{Family: "gskewed", N: 6, Hist: 6, Ctr: 2, Partial: true},
		{Family: "egskew", N: 6, Hist: 8, Ctr: 2},
		{Family: "2bcgskew", N: 6, Short: 4, Hist: 10, Ctr: 2},
		// History longer than both the index and tag widths, so the
		// planted fold fault has chunks to misalign.
		{Family: "tage", N: 6, Hist: 16, Ctr: 3, Tables: 4, Tag: 6},
		{Family: "perceptron", N: 6, Hist: 12, Ctr: 8, Tables: 4},
		{Family: "unaliased", Hist: 8, Ctr: 2},
		// Eight entries keyed by address alone: the table fills (and
		// the planted eviction fault shows) within the shrink bound,
		// and the program walk's loops re-reference resident entries.
		{Family: "assoc-lru", N: 3, Ctr: 2},
	}
}
