// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -id fig5 [-scale 0.1] [-bench groff,gs] [-format text|csv]
//	experiments -all [-scale 0.03] [-jobs N]
//
// Each experiment prints its result as an aligned text table (or CSV),
// with one sub-table per benchmark for the paper's per-benchmark
// figures.
//
// -jobs bounds the concurrent (experiment, benchmark) simulation cells
// (default GOMAXPROCS; -jobs 1 runs fully serially). Results are
// assembled in experiment order whatever the completion order, and
// timing lines go to stderr, so stdout is byte-identical across -jobs
// settings.
//
// -segments additionally splits each cell's trace into N contiguous
// segments simulated concurrently by the segment-parallel engine
// (sim.Options.Segments); -segments 0 lets each cell choose, draining
// multi-predictor cells cell-parallel. Either is an execution
// strategy, not a model change: results — and therefore stdout — are
// byte-identical across -segments settings too.
//
// Run telemetry is opt-in and never touches stdout:
//
//	-progress            live per-cell completion lines on stderr
//	-manifest FILE       JSON run manifest (configs, timing, versions)
//	-intervals N         per-cell misprediction curves every N branches
//	-intervals-out FILE  where the curves go (JSON; default stderr)
//	-debug-addr ADDR     expvar/pprof/metrics HTTP endpoint
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gskew/internal/cli"
	"gskew/internal/experiments"
	"gskew/internal/obs"
	"gskew/internal/tracepool"
	"gskew/internal/workload"
)

// prof is package-level so fatal can flush profiles on error exits.
var prof cli.Profile

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments")
		id       = flag.String("id", "", "experiment id to run (e.g. table1, fig5)")
		runID    = flag.String("run", "", "alias for -id; a bare name also tries the ext- prefix (e.g. -run shootout)")
		all      = flag.Bool("all", false, "run every experiment")
		scale    = flag.Float64("scale", 0, "workload scale factor (0 = default 0.1; 1.0 = paper-length traces)")
		bench    = flag.String("bench", "", "comma-separated benchmark subset (default: all six)")
		format   = flag.String("format", "text", "output format: text, csv or plot (ASCII charts)")
		seed     = flag.Uint64("seed", 0, "seed offset for workload generation")
		jobs     = flag.Int("jobs", 0, "max concurrent simulation cells (0 = GOMAXPROCS; 1 = serial)")
		segments = flag.Int("segments", 1, "parallel split per simulation cell, bit-identical results: N >= 2 segments the trace; 0 = auto (multi-predictor cells drain cell-parallel, other cells run serially; auto never segments); 1 = serial")
		poolDir  = flag.String("trace-pool", "", "content-addressed trace pool directory: reuse pooled workload traces across runs and processes (empty = off)")

		progress     = flag.Bool("progress", false, "print live per-cell progress lines to stderr")
		manifestOut  = flag.String("manifest", "", "write a JSON run manifest (configs, timing, versions) to this file")
		intervals    = flag.Int("intervals", 0, "record per-cell misprediction curves every N conditional branches (0 = off)")
		intervalsOut = flag.String("intervals-out", "", "write interval curves as JSON to this file (default stderr)")
		debugAddr    = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. localhost:0)")
	)
	prof.AddFlags(flag.CommandLine)
	flag.Parse()
	if err := prof.Start(); err != nil {
		fatal(err)
	}
	defer prof.Stop() // early returns (e.g. -list); Stop is idempotent

	if *list {
		fmt.Println("available experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-24s %s\n", e.ID, e.Title)
			fmt.Printf("  %-24s paper: %s\n", "", e.Paper)
		}
		return
	}

	if *debugAddr != "" {
		bound, err := obs.Serve(*debugAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "[debug endpoint on http://%s]\n", bound)
	}

	ctx := experiments.NewContext(*scale)
	ctx.SeedOffset = *seed
	ctx.Sched = experiments.NewSched(*jobs)
	ctx.Segments = *segments
	if *poolDir != "" {
		pool, err := tracepool.Open(len(workload.Names()), *poolDir)
		if err != nil {
			fatal(err)
		}
		ctx.Pool = pool
	}
	if *bench != "" {
		for _, b := range strings.Split(*bench, ",") {
			b = strings.TrimSpace(b)
			if _, err := workload.ByName(b); err != nil {
				fatal(err)
			}
			ctx.Benchmarks = append(ctx.Benchmarks, b)
		}
	}

	// Telemetry is opt-in: with none of the flags set ctx.Obs stays nil
	// and every cell runs exactly as before. All telemetry goes to
	// stderr or files, keeping stdout byte-identical.
	var runObs *experiments.RunObs
	var manifest *obs.Manifest
	if *progress || *manifestOut != "" || *intervals > 0 {
		obs.Enable()
		runObs = &experiments.RunObs{Intervals: *intervals}
		if *progress {
			runObs.Progress = obs.NewProgress(os.Stderr, 0)
		}
		if *manifestOut != "" {
			manifest = obs.NewManifest("experiments", os.Args[1:])
			effScale := *scale
			if effScale <= 0 {
				effScale = experiments.DefaultScale
			}
			manifest.SetParam("scale", effScale)
			manifest.SetParam("seed", *seed)
			manifest.SetParam("jobs", ctx.Sched.Jobs())
			manifest.SetParam("bench", ctx.BenchmarkNames())
			runObs.Manifest = manifest
		}
		ctx.Obs = runObs
	}

	if *runID != "" {
		if *id != "" && *id != *runID {
			fatal(fmt.Errorf("-id %q and -run %q conflict; specify one", *id, *runID))
		}
		*id = *runID
	}
	var toRun []experiments.Experiment
	switch {
	case *all:
		toRun = experiments.All()
	case *id != "":
		e, err := experiments.ByID(*id)
		if err != nil {
			// Accept bare extension names: -run shootout = -run ext-shootout.
			ext, extErr := experiments.ByID("ext-" + *id)
			if extErr != nil {
				fatal(err)
			}
			e = ext
		}
		toRun = []experiments.Experiment{e}
	default:
		fmt.Fprintln(os.Stderr, "specify -list, -id <experiment> or -all")
		flag.Usage()
		os.Exit(2)
	}

	// Run every experiment through the scheduler — independent
	// (experiment, benchmark) cells execute on up to -jobs goroutines —
	// then render in experiment order, so stdout does not depend on
	// -jobs. Timing goes to stderr for the same reason.
	start := time.Now()
	results, err := experiments.RunAll(ctx, toRun)
	if err != nil {
		fatal(err)
	}
	for i, e := range toRun {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("== %s: %s ==\n", e.ID, e.Title)
		var err error
		switch *format {
		case "text":
			err = results[i].WriteText(os.Stdout)
		case "csv":
			err = results[i].WriteCSV(os.Stdout)
		case "plot":
			err = experiments.WritePlot(os.Stdout, results[i])
		default:
			fatal(fmt.Errorf("unknown format %q", *format))
		}
		if err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "[%d experiment(s) completed in %v, jobs=%d]\n",
		len(toRun), time.Since(start).Round(time.Millisecond), ctx.Sched.Jobs())

	if runObs != nil && *intervals > 0 {
		series := runObs.Series()
		if *intervalsOut != "" {
			f, err := os.Create(*intervalsOut)
			if err != nil {
				fatal(err)
			}
			err = obs.WriteSeriesJSON(f, series)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "[%d interval curve(s) -> %s]\n", len(series), *intervalsOut)
		} else if err := obs.WriteSeriesJSON(os.Stderr, series); err != nil {
			fatal(err)
		}
	}
	if manifest != nil {
		if err := manifest.WriteFile(*manifestOut); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "[manifest (%d cell(s)) -> %s]\n", len(manifest.Cells), *manifestOut)
	}
	if err := prof.Stop(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	prof.Stop() // flush any partial profiles before exiting
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
