// Package gskew_test is the benchmark harness that regenerates every
// table and figure of the paper (see DESIGN.md's per-experiment index)
// under `go test -bench`. Each BenchmarkTableN/BenchmarkFigN runs the
// corresponding experiment end to end — workload generation, predictor
// simulation, rendering — and reports headline numbers as custom
// metrics, so `go test -bench=. -benchmem` reproduces the paper's
// artifacts and their costs in one sweep.
//
// Benchmarks use a reduced workload scale to keep the sweep tractable;
// run `cmd/experiments -all -scale 1.0` to regenerate at the paper's
// full trace lengths.
package gskew_test

import (
	"errors"
	"flag"
	"io"
	"os"
	"strconv"
	"testing"

	"gskew/internal/experiments"
	"gskew/internal/kernel"
	"gskew/internal/predictor"
	"gskew/internal/report"
	"gskew/internal/sim"
	"gskew/internal/trace"
	"gskew/internal/workload"
)

// benchScale keeps each experiment benchmark to roughly a second.
const benchScale = 0.01

// -jobs bounds the concurrent simulation cells of every experiment
// benchmark, mirroring `cmd/experiments -jobs`. 0 = GOMAXPROCS;
// 1 preserves the old fully-serial behaviour.
var benchJobs = flag.Int("jobs", 0, "max concurrent simulation cells in experiment benchmarks (0 = GOMAXPROCS)")

// benchContext returns the reduced-scale two-benchmark context the
// experiment benchmarks run on, honouring -jobs.
func benchContext() *experiments.Context {
	return &experiments.Context{
		Scale:      benchScale,
		Benchmarks: []string{"verilog", "nroff"},
		Sched:      experiments.NewSched(*benchJobs),
	}
}

// runExperiment executes one registered experiment b.N times and
// reports the misprediction (or miss-ratio) metrics of the final run.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var result experiments.Renderable
	for i := 0; i < b.N; i++ {
		// A fresh context per iteration so trace generation cost is
		// included (it is part of regenerating the artifact).
		result, err = e.Run(benchContext())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportHeadline(b, result)
	if err := result.WriteText(io.Discard); err != nil {
		b.Fatal(err)
	}
}

// reportHeadline extracts representative numbers from a result and
// attaches them as benchmark metrics: the first and last numeric cell
// of the last row of each table (or figure series endpoints).
func reportHeadline(b *testing.B, r experiments.Renderable) {
	b.Helper()
	switch v := r.(type) {
	case *report.Table:
		if len(v.Rows) == 0 {
			return
		}
		last := v.Rows[len(v.Rows)-1]
		for i := len(last) - 1; i > 0; i-- {
			if f, err := strconv.ParseFloat(trimPct(last[i]), 64); err == nil {
				b.ReportMetric(f, "last_row_value")
				return
			}
		}
	case *report.Figure:
		if len(v.Series) == 0 || len(v.Series[0].Ys) == 0 {
			return
		}
		s := v.Series[len(v.Series)-1]
		b.ReportMetric(s.Ys[len(s.Ys)-1], "final_point")
	case *experiments.Bundle:
		if len(v.Items) > 0 {
			reportHeadline(b, v.Items[len(v.Items)-1])
		}
	}
}

func trimPct(s string) string {
	for len(s) > 0 && (s[len(s)-1] == '%' || s[len(s)-1] == ' ') {
		s = s[:len(s)-1]
	}
	return s
}

// One benchmark per paper artifact.

func BenchmarkTable1(b *testing.B)  { runExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)  { runExperiment(b, "table2") }
func BenchmarkFig1(b *testing.B)    { runExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)    { runExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)    { runExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)    { runExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)    { runExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)    { runExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)    { runExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)    { runExperiment(b, "fig8") }
func BenchmarkFig9_10(b *testing.B) { runExperiment(b, "fig9"); runExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)   { runExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)   { runExperiment(b, "fig12") }

func BenchmarkAblationBanks(b *testing.B)    { runExperiment(b, "ablation-banks") }
func BenchmarkAblationPolicy(b *testing.B)   { runExperiment(b, "ablation-policy") }
func BenchmarkAblationCounters(b *testing.B) { runExperiment(b, "ablation-counters") }
func BenchmarkAblationEnhanced(b *testing.B) { runExperiment(b, "ablation-enhanced-bank0") }

// Predictor-throughput micro-benchmarks: cost per predicted branch for
// each organisation at the paper's reference sizes.

func benchPredictor(b *testing.B, p predictor.Predictor) {
	b.Helper()
	spec, err := workload.ByName("verilog")
	if err != nil {
		b.Fatal(err)
	}
	branches, err := workload.Materialize(spec, workload.Config{Scale: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	done := 0
	for done < b.N {
		chunk := len(branches)
		if b.N-done < chunk {
			chunk = b.N - done
		}
		if _, err := sim.RunBranches(branches[:chunk], p, sim.Options{}); err != nil {
			b.Fatal(err)
		}
		done += chunk
	}
}

func BenchmarkPredictGShare16k(b *testing.B) {
	benchPredictor(b, predictor.MustSpec(predictor.Spec{Family: "gshare", N: 14, Hist: 12, Ctr: 2}))
}

func BenchmarkPredictGSkewed3x4k(b *testing.B) {
	benchPredictor(b, predictor.MustGSkewed(predictor.Config{BankBits: 12, HistoryBits: 12}))
}

func BenchmarkPredictEGSkew3x4k(b *testing.B) {
	benchPredictor(b, predictor.MustGSkewed(predictor.Config{
		BankBits: 12, HistoryBits: 12, Enhanced: true,
	}))
}

func BenchmarkPredictAssocLRU4k(b *testing.B) {
	benchPredictor(b, predictor.NewAssocLRU(4096, 12, 2))
}

func BenchmarkPredictUnaliased(b *testing.B) {
	benchPredictor(b, predictor.NewUnaliased(12, 2))
}

// Extension-experiment benchmarks (paper future-work directions).

func BenchmarkExtPAs(b *testing.B)          { runExperiment(b, "ext-pas") }
func BenchmarkExtHybrid(b *testing.B)       { runExperiment(b, "ext-hybrid") }
func BenchmarkExtConfidence(b *testing.B)   { runExperiment(b, "ext-confidence") }
func BenchmarkExtEncoding(b *testing.B)     { runExperiment(b, "ext-encoding") }
func BenchmarkExtOpt(b *testing.B)          { runExperiment(b, "ext-opt") }
func BenchmarkExtPipeline(b *testing.B)     { runExperiment(b, "ext-pipeline") }
func BenchmarkExtInterference(b *testing.B) { runExperiment(b, "ext-interference") }
func BenchmarkExtQuantum(b *testing.B)      { runExperiment(b, "ext-quantum") }
func BenchmarkExtFlush(b *testing.B)        { runExperiment(b, "ext-flush") }
func BenchmarkExtModelM(b *testing.B)       { runExperiment(b, "ext-model-m") }
func BenchmarkExtVariance(b *testing.B)     { runExperiment(b, "ext-variance") }
func BenchmarkExtRivals(b *testing.B)       { runExperiment(b, "ext-rivals") }
func BenchmarkExtEV8(b *testing.B)          { runExperiment(b, "ext-ev8") }
func BenchmarkExtBestHist(b *testing.B)     { runExperiment(b, "ext-besthist") }
func BenchmarkExtSetAssoc(b *testing.B)     { runExperiment(b, "ext-setassoc") }

// BenchmarkGenerate times the synthetic workload generator alone:
// one op is a trace.BlockLen-record NextBatch from a warm generator,
// so ns/record is generation without encoding or simulation, and a
// warm generator allocates nothing.
func BenchmarkGenerate(b *testing.B) {
	for _, name := range workload.Names() {
		b.Run(name, func(b *testing.B) {
			spec, err := workload.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			g, err := workload.New(spec, workload.Config{})
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]trace.Branch, trace.BlockLen)
			if _, err := g.NextBatch(buf); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.NextBatch(buf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(buf)), "ns/record")
		})
	}
}

// BenchmarkWorkloadNew times building one benchmark's generator: every
// process program and the kernel program generated and compiled to
// walkers, before any record is drawn. The scale only sets the
// generator's length, so one fixed scale stands for all. make bench
// snapshots it into BENCH_workload.json, whose allocs/op
// TestBenchSnapshotWorkloadNew bounds.
func BenchmarkWorkloadNew(b *testing.B) {
	for _, name := range workload.Names() {
		b.Run(name, func(b *testing.B) {
			spec, err := workload.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			c := workload.Config{Scale: benchScale, SeedOffset: 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := workload.New(spec, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Single-pass vs sequential simulation: the same predictor set driven
// over the same trace by N sim.RunBranches calls versus one
// sim.RunManyBranches call. The /Many variant decodes the trace and
// maintains global history once per event instead of once per
// (event, predictor), which is where the experiment-suite speedup
// comes from.

func manyBenchPredictors() []predictor.Predictor {
	return []predictor.Predictor{
		predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 14, Ctr: 2}),
		predictor.MustSpec(predictor.Spec{Family: "gshare", N: 14, Hist: 12, Ctr: 2}),
		predictor.MustSpec(predictor.Spec{Family: "gselect", N: 14, Hist: 7, Ctr: 2}),
		predictor.MustGSkewed(predictor.Config{BankBits: 12, HistoryBits: 12}),
		predictor.MustGSkewed(predictor.Config{BankBits: 12, HistoryBits: 12, Enhanced: true}),
		predictor.MustGSkewed(predictor.Config{
			BankBits: 12, HistoryBits: 12, Policy: predictor.TotalUpdate,
		}),
	}
}

func manyBenchTrace(b *testing.B) []trace.Branch {
	b.Helper()
	spec, err := workload.ByName("verilog")
	if err != nil {
		b.Fatal(err)
	}
	branches, err := workload.Materialize(spec, workload.Config{Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	return branches
}

func BenchmarkRunManyVsSequential(b *testing.B) {
	branches := manyBenchTrace(b)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range manyBenchPredictors() {
				if _, err := sim.RunBranches(branches, p, sim.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("runmany", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunManyBranches(branches, manyBenchPredictors(), sim.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Scheduler benchmark: the same four-experiment slice of the suite run
// serially (jobs=1) and with the worker pool wide open (jobs=0, i.e.
// GOMAXPROCS). On a multi-core host the second sub-benchmark shows the
// wall-clock win; on one core the two match, demonstrating that the
// pool adds no measurable overhead.

func benchSchedule(b *testing.B, jobs int) {
	b.Helper()
	ids := []string{"fig5", "fig6", "fig7", "fig12"}
	exps := make([]experiments.Experiment, len(ids))
	for i, id := range ids {
		e, err := experiments.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		exps[i] = e
	}
	for i := 0; i < b.N; i++ {
		ctx := &experiments.Context{
			Scale:      benchScale,
			Benchmarks: []string{"verilog", "nroff"},
			Sched:      experiments.NewSched(jobs),
		}
		if _, err := experiments.RunAll(ctx, exps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleSerial(b *testing.B)   { benchSchedule(b, 1) }
func BenchmarkScheduleParallel(b *testing.B) { benchSchedule(b, 0) }

// Compiled-kernel benchmarks: the same simulation driven through the
// compiled fast path (internal/kernel) and through the generic
// interface path (Options.NoKernel). `make bench` runs these and
// records the comparison in BENCH_kernel.json.

// kernelBenchTrace materialises the shared step-loop workload once.
func kernelBenchTrace(b *testing.B) []trace.Branch {
	b.Helper()
	spec, err := workload.ByName("verilog")
	if err != nil {
		b.Fatal(err)
	}
	branches, err := workload.Materialize(spec, workload.Config{Scale: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	return branches
}

// benchStepLoop runs the full simulation loop (trace iteration,
// history maintenance, predict, train) over one predictor on both
// paths. The kernel/interface ratio is the headline speedup of the
// compiled layer.
func benchStepLoop(b *testing.B, mk func() predictor.Predictor) {
	branches := kernelBenchTrace(b)
	for _, path := range []struct {
		name     string
		noKernel bool
	}{
		{"kernel", false},
		{"interface", true},
	} {
		b.Run(path.name, func(b *testing.B) {
			p := mk()
			opts := sim.Options{NoKernel: path.noKernel}
			b.ReportAllocs()
			b.ResetTimer()
			done := 0
			for done < b.N {
				chunk := len(branches)
				if b.N-done < chunk {
					chunk = b.N - done
				}
				if _, err := sim.RunBranches(branches[:chunk], p, opts); err != nil {
					b.Fatal(err)
				}
				done += chunk
			}
		})
	}
}

func BenchmarkKernelBimodal16k(b *testing.B) {
	benchStepLoop(b, func() predictor.Predictor {
		return predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 14, Ctr: 2})
	})
}

func BenchmarkKernelGShare16k(b *testing.B) {
	benchStepLoop(b, func() predictor.Predictor {
		return predictor.MustSpec(predictor.Spec{Family: "gshare", N: 14, Hist: 12, Ctr: 2})
	})
}

func BenchmarkKernelGSelect16k(b *testing.B) {
	benchStepLoop(b, func() predictor.Predictor {
		return predictor.MustSpec(predictor.Spec{Family: "gselect", N: 14, Hist: 6, Ctr: 2})
	})
}

func BenchmarkKernelGSkewed3x4k(b *testing.B) {
	benchStepLoop(b, func() predictor.Predictor {
		return predictor.MustGSkewed(predictor.Config{BankBits: 12, HistoryBits: 12})
	})
}

func BenchmarkKernelEGSkew3x4k(b *testing.B) {
	benchStepLoop(b, func() predictor.Predictor {
		return predictor.MustGSkewed(predictor.Config{BankBits: 12, HistoryBits: 12, Enhanced: true})
	})
}

// BenchmarkKernelGSkewed5x4k and BenchmarkKernelGSkewed7x4k are the
// pairs for ablation-banks' wider skews, which compile to the M-bank
// kernel.
func BenchmarkKernelGSkewed5x4k(b *testing.B) {
	benchStepLoop(b, func() predictor.Predictor {
		return predictor.MustGSkewed(predictor.Config{Banks: 5, BankBits: 12, HistoryBits: 8})
	})
}

func BenchmarkKernelGSkewed7x4k(b *testing.B) {
	benchStepLoop(b, func() predictor.Predictor {
		return predictor.MustGSkewed(predictor.Config{Banks: 7, BankBits: 12, HistoryBits: 8})
	})
}

// BenchmarkKernelGSkewedShh is the pair for ext-encoding's 3x4k skew
// with one hysteresis bit per two entries.
func BenchmarkKernelGSkewedShh(b *testing.B) {
	benchStepLoop(b, func() predictor.Predictor {
		return predictor.MustGSkewed(predictor.Config{BankBits: 12, HistoryBits: 8, SharedHysteresis: 1})
	})
}

func BenchmarkKernel2BcGSkew4x4k(b *testing.B) {
	benchStepLoop(b, func() predictor.Predictor {
		return predictor.MustSpec(predictor.Spec{Family: "2bcgskew", N: 12, HistShort: 8, Hist: 16})
	})
}

// BenchmarkKernelTAGE4x512 is the kernel-vs-interface pair for the
// ext-shootout TAGE configuration.
func BenchmarkKernelTAGE4x512(b *testing.B) {
	benchStepLoop(b, func() predictor.Predictor {
		return predictor.MustSpec(benchTAGE4x512)
	})
}

// benchTAGE4x512 is ext-shootout's "tage-4x512" entry.
var benchTAGE4x512 = predictor.Spec{Family: "tage", N: 9, Hist: 20, HistMin: 4, Tables: 4, Tag: 8, Ctr: 3}

// BenchmarkKernelStepBatch measures the compiled step loop alone — no
// trace decoding, no history maintenance — on a prepared step block.
// This is the ns/branch floor of the predictor inner loop.
func BenchmarkKernelStepBatch(b *testing.B) {
	branches := kernelBenchTrace(b)
	for _, cfg := range []struct {
		name string
		mk   func() predictor.Predictor
	}{
		{"gshare16k", func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "gshare", N: 14, Hist: 12, Ctr: 2})
		}},
		{"gskewed3x4k", func() predictor.Predictor {
			return predictor.MustGSkewed(predictor.Config{BankBits: 12, HistoryBits: 12})
		}},
		{"egskew3x4k", func() predictor.Predictor {
			return predictor.MustGSkewed(predictor.Config{BankBits: 12, HistoryBits: 12, Enhanced: true})
		}},
		{"2bcgskew4x4k", func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "2bcgskew", N: 12, HistShort: 8, Hist: 16})
		}},
		{"tage4x512", func() predictor.Predictor {
			return predictor.MustSpec(benchTAGE4x512)
		}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			p := cfg.mk()
			kern, ok := kernel.Compile(p, p.HistoryBits())
			if !ok {
				b.Fatal("predictor did not compile")
			}
			steps := make([]kernel.Step, 0, len(branches))
			hist, mask := uint64(0), uint64(1)<<p.HistoryBits()-1
			for _, br := range branches {
				if br.Kind == trace.Conditional {
					steps = append(steps, kernel.Step{PC: br.PC, Hist: hist, Taken: br.Taken})
				}
				hist = hist << 1 & mask
				if br.Taken {
					hist |= 1
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			done := 0
			for done < b.N {
				chunk := len(steps)
				if b.N-done < chunk {
					chunk = b.N - done
				}
				kern.StepBatch(steps[:chunk])
				done += chunk
			}
		})
	}
}

// BenchmarkKernelRunMany drives the paper's main five-predictor
// comparison set in one pass on both paths — the shape every sweep
// experiment runs.
func BenchmarkKernelRunMany(b *testing.B) {
	branches := kernelBenchTrace(b)
	mk := func() []predictor.Predictor {
		return []predictor.Predictor{
			predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 14, Ctr: 2}),
			predictor.MustSpec(predictor.Spec{Family: "gshare", N: 14, Hist: 12, Ctr: 2}),
			predictor.MustSpec(predictor.Spec{Family: "gselect", N: 14, Hist: 6, Ctr: 2}),
			predictor.MustGSkewed(predictor.Config{BankBits: 12, HistoryBits: 12}),
			predictor.MustGSkewed(predictor.Config{BankBits: 12, HistoryBits: 12, Enhanced: true}),
		}
	}
	for _, path := range []struct {
		name     string
		noKernel bool
	}{
		{"kernel", false},
		{"interface", true},
	} {
		b.Run(path.name, func(b *testing.B) {
			preds := mk()
			opts := sim.Options{NoKernel: path.noKernel}
			b.ReportAllocs()
			b.ResetTimer()
			done := 0
			for done < b.N {
				chunk := len(branches)
				if b.N-done < chunk {
					chunk = b.N - done
				}
				if _, err := sim.RunManyBranches(branches[:chunk], preds, opts); err != nil {
					b.Fatal(err)
				}
				done += chunk
			}
		})
	}
}

// Whole-trace sweep benchmarks. `make bench` snapshots these (the
// ^BenchmarkSim pattern) into BENCH_sim.json: a mixed-geometry sweep
// run serially and automatically (cell-parallel). On a single-core
// host the auto arm has no helpers and matches serial.

// simBenchTrace materialises the longer trace the whole-trace
// benchmarks run on.
func simBenchTrace(b *testing.B) []trace.Branch {
	b.Helper()
	spec, err := workload.ByName("verilog")
	if err != nil {
		b.Fatal(err)
	}
	branches, err := workload.Materialize(spec, workload.Config{Scale: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	return branches
}

// simAutoCells is the mixed-geometry sweep of BenchmarkSimAuto: eight
// cells of six families and several sizes.
var simAutoCells = []string{
	"gshare:n=14,k=12",
	"gshare:n=12,k=10",
	"gskewed:n=12,k=8",
	"egskew:n=11,k=10",
	"bimodal:n=14",
	"gselect:n=13,k=6",
	"2bcgskew:n=12,ks=6,k=13",
	"gskewed:n=10,k=12,policy=total",
}

// BenchmarkSimAuto runs simAutoCells over the whole trace serially
// (Segments 1) and automatically (Segments 0, which drains the cells
// cell-parallel on up to GOMAXPROCS goroutines); ns/op is per branch
// per predictor.
func BenchmarkSimAuto(b *testing.B) {
	branches := simBenchTrace(b)
	for _, arm := range []struct {
		name     string
		segments int
	}{
		{"serial", 1},
		{"auto", 0},
	} {
		b.Run(arm.name, func(b *testing.B) {
			preds := make([]predictor.Predictor, len(simAutoCells))
			for i, spec := range simAutoCells {
				preds[i] = predictor.MustParseSpec(spec)
			}
			opts := sim.Options{Segments: arm.segments}
			b.ReportAllocs()
			b.ResetTimer()
			done := 0
			for done < b.N {
				chunk := len(branches) * len(preds)
				if b.N-done < chunk {
					chunk = b.N - done
				}
				if _, err := sim.RunManyBranches(branches[:(chunk+len(preds)-1)/len(preds)], preds, opts); err != nil {
					b.Fatal(err)
				}
				done += chunk
			}
		})
	}
}

// BenchmarkTraceCodec times the trace codec end to end; ns/op is per
// record. `make bench` snapshots this family (the ^BenchmarkTraceCodec
// pattern) into BENCH_trace.json, and bench_guard_test.go holds the
// mmap batch path and the writer to zero allocations.
//
//   - mmap-columnar: NextBatch through the zero-copy mapped reader over
//     a real columnar file (predsim -trace's path); ns/op is per
//     decoded record
//   - encode-columnar: Write through one reused ColumnarWriter into
//     io.Discard (the tracegen and trace-file path); ns/op is per
//     encoded record
//   - hash: HashBranches over the trace; ns/op is per hashed record
func BenchmarkTraceCodec(b *testing.B) {
	branches := simBenchTrace(b)
	columnar, err := trace.EncodeColumnar(branches)
	if err != nil {
		b.Fatal(err)
	}
	path := b.TempDir() + "/v.ctrace"
	if err := os.WriteFile(path, columnar, 0o644); err != nil {
		b.Fatal(err)
	}

	b.Run("mmap-columnar", func(b *testing.B) {
		dst := make([]trace.Branch, 4096)
		b.ReportAllocs()
		b.ResetTimer()
		done := 0
		for done < b.N {
			m, err := trace.MapFile(path)
			if err != nil {
				b.Fatal(err)
			}
			for done < b.N {
				n, err := m.NextBatch(dst)
				done += n
				if err != nil {
					if errors.Is(err, io.EOF) {
						break
					}
					b.Fatal(err)
				}
			}
			m.Close()
		}
	})
	b.Run("encode-columnar", func(b *testing.B) {
		w, err := trace.NewColumnarWriter(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i, j := 0, 0; i < b.N; i++ {
			if err := w.Write(branches[j]); err != nil {
				b.Fatal(err)
			}
			if j++; j == len(branches) {
				j = 0
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("hash", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for done := 0; done < b.N; {
			n := min(b.N-done, len(branches))
			hashSink = trace.HashBranches(branches[:n])
			done += n
		}
	})
}

// hashSink keeps BenchmarkTraceCodec's hash arm from being optimised
// away.
var hashSink string
