package experiments

import (
	"fmt"

	"gskew/internal/alias"
	"gskew/internal/history"
	"gskew/internal/indexfn"
	"gskew/internal/pipeline"
	"gskew/internal/predictor"
	"gskew/internal/report"
	"gskew/internal/sim"
	"gskew/internal/trace"
)

// Extension experiments: the paper's section-7 future-work directions,
// realised. Ids are prefixed "ext-".

func init() {
	register(Experiment{
		ID:    "ext-pas",
		Title: "Skewing applied to per-address two-level schemes",
		Paper: "Section 7: 'the same technique could be applied to ... per-address history schemes'",
		Run:   runExtPAs,
	})
	register(Experiment{
		ID:    "ext-hybrid",
		Title: "Hybrid (McFarling chooser) with and without a skewed component",
		Paper: "Section 7: hybrid schemes as a skewing target; related work [8,2,1,4]",
		Run:   runExtHybrid,
	})
	register(Experiment{
		ID:    "ext-confidence",
		Title: "Vote margin as a confidence estimator",
		Paper: "Implicit in the majority-vote structure (used later by the Alpha EV8); unanimous votes should be far more accurate",
		Run:   runExtConfidence,
	})
	register(Experiment{
		ID:    "ext-encoding",
		Title: "Distributed encodings: shared-hysteresis banks",
		Paper: "Section 7: 'do there exist alternative distributed predictor encodings that are more space efficient?'",
		Run:   runExtEncoding,
	})
	register(Experiment{
		ID:    "ext-opt",
		Title: "Capacity aliasing under OPT (Belady) vs LRU replacement",
		Paper: "Section 3.2's caveat after Sugumar/Abraham: LRU is not an optimal replacement policy",
		Run:   runExtOpt,
	})
}

// compareRows runs one RunSpecs comparison per benchmark as scheduler
// cells and returns, in suite order, rows of the form [name, miss%...],
// the common shape of the extension tables. id names the experiment
// for run telemetry.
func compareRows(ctx *Context, id string, specs []predictor.Spec, opts sim.Options) ([][]any, error) {
	return mapBenchmarks(ctx, func(name string, _ []trace.Branch) ([]any, error) {
		results, err := ctx.RunSpecs(id+"/"+name, name, specs, opts)
		if err != nil {
			return nil, err
		}
		return missRow(name, results), nil
	})
}

// missRow is [name, miss%...] over results.
func missRow(name string, results []sim.Result) []any {
	row := []any{name}
	for _, r := range results {
		row = append(row, fmt.Sprintf("%.2f", r.MissPercent()))
	}
	return row
}

func runExtPAs(ctx *Context) (Renderable, error) {
	t := report.NewTable("Skewed per-address schemes (miss %, local history 8, 64-entry BHT x 1024)",
		"benchmark", "pas 4k", "skewed-pas 3x2k", "gshare 4k (global, h8)")
	rows, err := compareRows(ctx, "ext-pas", []predictor.Spec{
		specOf("pas:bht=10,local=8,n=12,ctr=2"),
		specOf("skewed-pas:bht=10,local=8,n=11,ctr=2,policy=partial"),
		specOf("gshare:n=12,k=8,ctr=2"),
	}, sim.Options{})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}

func runExtHybrid(ctx *Context) (Renderable, error) {
	t := report.NewTable("Hybrid predictors (miss %, 8-bit history)",
		"benchmark", "gshare 16k", "bimodal+gshare", "bimodal+gskewed", "egskew 3x4k")
	const k = 8
	rows, err := mapBenchmarks(ctx, func(name string, branches []trace.Branch) ([]any, error) {
		// The spec'd columns come from the memo; the hybrids have no
		// spec, so they are simulated here on their own pass.
		specd, err := ctx.RunSpecs("ext-hybrid/"+name, name, []predictor.Spec{
			{Family: "gshare", N: 14, Hist: k},
			{Family: "egskew", N: 12, Hist: k},
		}, sim.Options{})
		if err != nil {
			return nil, err
		}
		bimodal := func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 12})
		}
		hybrids, err := ctx.RunMany("ext-hybrid/"+name+"/hybrids", trace.NewSliceSource(branches), []predictor.Predictor{
			predictor.MustHybrid(bimodal(),
				predictor.MustSpec(predictor.Spec{Family: "gshare", N: 13, Hist: k}), 12),
			predictor.MustHybrid(bimodal(),
				predictor.MustSpec(predictor.Spec{Family: "gskewed", N: 11, Hist: k}), 12),
		}, sim.Options{})
		if err != nil {
			return nil, err
		}
		return missRow(name, []sim.Result{specd[0], hybrids[0], hybrids[1], specd[1]}), nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}

func runExtConfidence(ctx *Context) (Renderable, error) {
	const histBits = 8
	t := report.NewTable("Vote-margin confidence (3x4k gskewed, 8-bit history, partial update)",
		"benchmark", "unanimous share", "miss | unanimous", "miss | split vote", "ratio")
	rows, err := mapBenchmarks(ctx, func(name string, branches []trace.Branch) ([]any, error) {
		g := predictor.MustGSkewed(predictor.Config{
			BankBits: 12, HistoryBits: histBits, Policy: predictor.PartialUpdate,
		})
		ghr := history.NewGlobal(histBits)
		var unanimousN, unanimousMiss, splitN, splitMiss int
		for _, b := range branches {
			if b.Kind == trace.Conditional {
				pred, unanimous := g.PredictConfident(b.PC, ghr.Bits())
				miss := pred != b.Taken
				if unanimous {
					unanimousN++
					if miss {
						unanimousMiss++
					}
				} else {
					splitN++
					if miss {
						splitMiss++
					}
				}
				g.Update(b.PC, ghr.Bits(), b.Taken)
			}
			ghr.Shift(b.Taken)
		}
		um := 100 * float64(unanimousMiss) / float64(max(unanimousN, 1))
		sm := 100 * float64(splitMiss) / float64(max(splitN, 1))
		ratio := sm / um
		return []any{name,
			fmt.Sprintf("%.1f %%", 100*float64(unanimousN)/float64(unanimousN+splitN)),
			fmt.Sprintf("%.2f %%", um),
			fmt.Sprintf("%.2f %%", sm),
			fmt.Sprintf("%.1fx", ratio)}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}

func runExtEncoding(ctx *Context) (Renderable, error) {
	const histBits = 8
	t := report.NewTable("Shared-hysteresis encoding (gskewed, 8-bit history, partial update)",
		"benchmark", "3x4k 2-bit (24 Kbit)", "3x4k shared/2 (15 Kbit)", "3x8k shared/4 (27 Kbit)")
	rows, err := compareRows(ctx, "ext-encoding", []predictor.Spec{
		{Family: "gskewed", N: 12, Hist: histBits},
		{Family: "gskewed", N: 12, Hist: histBits, SharedHyst: 1},
		{Family: "gskewed", N: 13, Hist: histBits, SharedHyst: 2},
	}, sim.Options{})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}

func runExtOpt(ctx *Context) (Renderable, error) {
	const histBits = 4
	items, err := ctx.forEachBenchmark(func(name string, _ []trace.Branch) (Renderable, error) {
		// The direct-mapped tables run over the shared 4-bit substream
		// profile (fig1 builds it); the LRU column of every capacity is
		// read off its distance histogram, and the OPT column shares one
		// next-use array over its ID stream.
		p, err := ctx.substreams(name, histBits)
		if err != nil {
			return nil, err
		}
		sizes := []uint{10, 12, 14}
		optStream := alias.NewOptStream(p.ids, len(p.addrs))

		t := report.NewTable(name,
			"entries", "gshare-dm %", "lru %", "opt %", "conflict vs lru", "conflict vs opt")
		for _, n := range sizes {
			dm := p.dmMissRatio(indexfn.NewGShare(n, histBits))
			lru := p.sd.MissRatioAt(1 << n)
			opt := 0.0
			if len(p.ids) > 0 {
				opt = float64(optStream.Misses(1<<n)) / float64(len(p.ids))
			}
			t.AddRow(fmt.Sprintf("%d", 1<<n),
				fmt.Sprintf("%.3f", 100*dm),
				fmt.Sprintf("%.3f", 100*lru),
				fmt.Sprintf("%.3f", 100*opt),
				fmt.Sprintf("%.3f", 100*(dm-lru)),
				fmt.Sprintf("%.3f", 100*(dm-opt)))
		}
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	return &Bundle{
		Title: "Conflict aliasing measured against LRU vs OPT capacity baselines (4-bit history)",
		Items: items,
	}, nil
}

func init() {
	register(Experiment{
		ID:    "ext-pipeline",
		Title: "Front-end impact: IPC and speedup vs pipeline depth",
		Paper: "Section 1's motivation quantified: mispredictions dominate deep, wide front ends",
		Run:   runExtPipeline,
	})
}

func runExtPipeline(ctx *Context) (Renderable, error) {
	const histBits = 8
	t := report.NewTable("Front-end model: 4-wide fetch, 5 instr/branch (miss % -> IPC at penalty 5/10/20)",
		"benchmark", "predictor", "miss %", "IPC@5", "IPC@10", "IPC@20", "speedup@20 vs gshare")
	rows, err := mapBenchmarks(ctx, func(name string, _ []trace.Branch) ([][]any, error) {
		specs := []predictor.Spec{
			{Family: "gshare", N: 14, Hist: histBits},
			{Family: "gskewed", N: 12, Hist: histBits},
			{Family: "egskew", N: 12, Hist: histBits},
		}
		results, err := ctx.RunSpecs("ext-pipeline/"+name, name, specs, sim.Options{})
		if err != nil {
			return nil, err
		}
		base := results[0]
		var rows [][]any
		for i, s := range specs {
			r := results[i]
			row := []any{name, fmt.Sprintf("%v", predictor.MustSpec(s)), fmt.Sprintf("%.2f", r.MissPercent())}
			for _, penalty := range []int{5, 10, 20} {
				m := pipeline.Model{FetchWidth: 4, MispredictPenalty: penalty, InstrPerBranch: 5}
				c, err := m.Evaluate(r.Conditionals, r.Mispredicts)
				if err != nil {
					return nil, err
				}
				row = append(row, fmt.Sprintf("%.2f", c.IPC()))
			}
			m := pipeline.Model{FetchWidth: 4, MispredictPenalty: 20, InstrPerBranch: 5}
			sp, err := m.Speedup(base.Conditionals, base.Mispredicts, r.Mispredicts)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.3fx", sp))
			rows = append(rows, row)
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	for _, benchRows := range rows {
		for _, row := range benchRows {
			t.AddRow(row...)
		}
	}
	return t, nil
}
