// Command aliasing runs the three-Cs aliasing classification (section
// 2 of the paper) for a given index scheme over a benchmark workload
// or trace file, printing compulsory / capacity / conflict ratios and
// the underlying tagged-table miss ratios.
//
// Examples:
//
//	aliasing -bench groff -fn gshare -entries 4096 -hist 4
//	aliasing -bench gs -fn gselect -entries 65536 -hist 12
//	aliasing -trace t.ctrace -fn bimodal -entries 1024
//
// -intervals N additionally emits the classification as a curve —
// per-interval total, compulsory, capacity and conflict aliasing —
// so the warmup transient (cold compulsory misses) is separable from
// the steady-state conflict behaviour the paper studies.
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"gskew/internal/alias"
	"gskew/internal/cli"
	"gskew/internal/history"
	"gskew/internal/indexfn"
	"gskew/internal/obs"
	"gskew/internal/trace"
	"gskew/internal/workload"
)

func main() { cli.Main("aliasing", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("aliasing", stderr)
	var (
		benchName = fs.String("bench", "", "benchmark workload name")
		traceFile = fs.String("trace", "", "binary trace file, columnar or legacy varint (alternative to -bench)")
		scale     = fs.Float64("scale", 0, "workload scale (default 0.1)")
		fnName    = fs.String("fn", "gshare", "index function: gshare, gselect, bimodal")
		entries   = fs.Int("entries", 4096, "table entries (rounded up to a power of two)")
		hist      = fs.Uint("hist", 4, "global history bits")

		intervals    = fs.Int("intervals", 0, "record the per-class aliasing curve every N references (0 = off)")
		intervalsOut = fs.String("intervals-out", "", "write the interval curve as JSON to this file (default stderr)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	n := uint(0)
	for 1<<n < *entries {
		n++
	}
	var fn indexfn.Func
	switch *fnName {
	case "gshare":
		fn = indexfn.NewGShare(n, *hist)
	case "gselect":
		fn = indexfn.NewGSelect(n, *hist)
	case "bimodal":
		fn = indexfn.NewBimodal(n)
	default:
		return cli.Usagef("unknown index function %q", *fnName)
	}

	var src trace.Source
	switch {
	case *traceFile != "":
		m, err := trace.MapFile(*traceFile)
		if err != nil {
			return err
		}
		defer m.Close()
		src = m
	case *benchName != "":
		spec, err := workload.ByName(*benchName)
		if err != nil {
			return err
		}
		g, err := workload.New(spec, workload.Config{Scale: *scale})
		if err != nil {
			return err
		}
		src = workload.NewTake(g, g.Length())
	default:
		return cli.Usagef("specify -bench or -trace")
	}

	var rec *obs.Recorder
	if *intervals > 0 {
		rec = obs.NewRecorder(*intervals, fn.Name())
	}

	cl := alias.NewClassifier(fn)
	ghr := history.NewGlobal(*hist)
	for {
		b, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		if b.Kind == trace.Conditional {
			class := cl.Observe(b.PC, ghr.Bits())
			if rec != nil {
				// The curve's "mispredicts" column carries total aliasing
				// (any DM miss), decomposed into the three-Cs fields.
				aliased, comp, cap, conf := 0, 0, 0, 0
				switch class {
				case alias.Compulsory:
					aliased, comp = 1, 1
				case alias.Capacity:
					aliased, cap = 1, 1
				case alias.Conflict:
					aliased, conf = 1, 1
				}
				rec.AddClassified(0, 1, aliased, comp, cap, conf)
			}
		}
		ghr.Shift(b.Taken)
	}

	if rec != nil {
		series := rec.Series()
		if *intervalsOut != "" {
			f, err := os.Create(*intervalsOut)
			if err != nil {
				return err
			}
			err = obs.WriteSeriesJSON(f, series)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			fmt.Fprintf(stderr, "[interval curve -> %s]\n", *intervalsOut)
		} else if err := obs.WriteSeriesJSON(stderr, series); err != nil {
			return err
		}
	}

	st := cl.Stats()
	fmt.Fprintf(stdout, "index function:   %s (%d entries, %d history bits)\n", fn.Name(), 1<<n, *hist)
	fmt.Fprintf(stdout, "references:       %d\n", st.Accesses)
	fmt.Fprintf(stdout, "DM miss ratio:    %.3f %%  (total aliasing)\n", 100*cl.DM().MissRatio())
	fmt.Fprintf(stdout, "FA-LRU miss:      %.3f %%  (compulsory + capacity)\n", 100*cl.FA().MissRatio())
	fmt.Fprintf(stdout, "compulsory:       %.3f %%\n", 100*st.CompulsoryRatio())
	fmt.Fprintf(stdout, "capacity:         %.3f %%\n", 100*st.CapacityRatio())
	fmt.Fprintf(stdout, "conflict:         %.3f %%\n", 100*st.ConflictRatio())
	return nil
}
