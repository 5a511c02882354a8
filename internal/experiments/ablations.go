package experiments

import (
	"fmt"

	"gskew/internal/predictor"
	"gskew/internal/report"
	"gskew/internal/sim"
	"gskew/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "ablation-banks",
		Title: "Bank-count ablation: 1, 3, 5 and 7 banks",
		Paper: "Section 5.1 ('varying number of predictor banks'): 5 banks add little over 3; bigger banks beat more banks",
		Run:   runAblationBanks,
	})
	register(Experiment{
		ID:    "ablation-policy",
		Title: "Update-policy ablation across history lengths",
		Paper: "Sections 4.1/5.1: partial update consistently beats total update",
		Run:   runAblationPolicy,
	})
	register(Experiment{
		ID:    "ablation-counters",
		Title: "Counter-width ablation: 1-bit vs 2-bit cells",
		Paper: "Table 2 and section 7 ('distributed predictor encodings'): 2-bit cells win at equal entry counts",
		Run:   runAblationCounters,
	})
	register(Experiment{
		ID:    "ablation-enhanced-bank0",
		Title: "Enhanced-gskew bank-0 indexing ablation",
		Paper: "Section 6: address-only bank 0 rescues long-history references; at short histories the variants tie",
		Run:   runAblationEnhanced,
	})
}

// runAblationBanks compares bank counts at a fixed per-bank size
// (4k entries, 8-bit history), reporting total storage alongside so
// the cost of each configuration is explicit. The five configurations
// of a benchmark share one trace pass.
func runAblationBanks(ctx *Context) (Renderable, error) {
	const histBits = 8
	const bankBits = 12
	t := report.NewTable("Bank-count ablation (4k-entry banks, 8-bit history, partial update)",
		"benchmark", "1 bank (gshare 4k)", "3 banks (12k)", "5 banks (20k)", "7 banks (28k)", "gshare 16k")
	rows, err := mapBenchmarks(ctx, func(name string, _ []trace.Branch) ([]float64, error) {
		specs := []predictor.Spec{{Family: "gshare", N: bankBits, Hist: histBits}}
		for _, banks := range []int{3, 5, 7} {
			specs = append(specs, predictor.Spec{
				Family: "gskewed", Banks: banks, N: bankBits, Hist: histBits})
		}
		// Cost-equivalent alternative to 3 more banks: one bigger bank.
		specs = append(specs, predictor.Spec{Family: "gshare", N: bankBits + 2, Hist: histBits})
		results, err := ctx.RunSpecs("ablation-banks/"+name, name, specs, sim.Options{})
		if err != nil {
			return nil, err
		}
		row := make([]float64, len(results))
		for i, res := range results {
			row[i] = res.MissPercent()
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	var cols [5][]float64
	for i, name := range ctx.BenchmarkNames() {
		row := rows[i]
		t.AddRow(name,
			fmt.Sprintf("%.2f", row[0]), fmt.Sprintf("%.2f", row[1]),
			fmt.Sprintf("%.2f", row[2]), fmt.Sprintf("%.2f", row[3]),
			fmt.Sprintf("%.2f", row[4]))
		for j, v := range row {
			cols[j] = append(cols[j], v)
		}
	}
	// Geometric-mean summary row.
	t.AddRow("geomean",
		fmt.Sprintf("%.2f", geomean(cols[0])), fmt.Sprintf("%.2f", geomean(cols[1])),
		fmt.Sprintf("%.2f", geomean(cols[2])), fmt.Sprintf("%.2f", geomean(cols[3])),
		fmt.Sprintf("%.2f", geomean(cols[4])))
	return t, nil
}

func runAblationPolicy(ctx *Context) (Renderable, error) {
	return historySweep(ctx, "ablation-policy",
		"Partial vs total update (3x4k gskewed)",
		[]uint{0, 4, 8, 12, 16},
		[]sweepOrg{
			{"partial", func(k uint) predictor.Spec {
				return predictor.Spec{Family: "gskewed", N: 12, Hist: k}
			}},
			{"total", func(k uint) predictor.Spec {
				return predictor.Spec{Family: "gskewed", N: 12, Hist: k, Policy: predictor.TotalUpdate}
			}},
		})
}

func runAblationCounters(ctx *Context) (Renderable, error) {
	const histBits = 8
	t := report.NewTable("Counter-width ablation (3x4k gskewed, 8-bit history, partial update)",
		"benchmark", "1-bit cells", "2-bit cells")
	rows, err := mapBenchmarks(ctx, func(name string, _ []trace.Branch) ([]string, error) {
		var specs []predictor.Spec
		for _, bits := range []uint{1, 2} {
			specs = append(specs, predictor.Spec{Family: "gskewed", N: 12, Hist: histBits, Ctr: bits})
		}
		results, err := ctx.RunSpecs("ablation-counters/"+name, name, specs, sim.Options{})
		if err != nil {
			return nil, err
		}
		rates := make([]string, len(results))
		for i, res := range results {
			rates[i] = fmt.Sprintf("%.2f", res.MissPercent())
		}
		return rates, nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range ctx.BenchmarkNames() {
		t.AddRow(name, rows[i][0], rows[i][1])
	}
	return t, nil
}

// runAblationEnhanced isolates the e-gskew design choice: replace the
// address-only bank 0 with (a) the standard f0 (plain gskewed) and
// (b) a bimodal-style short-history index, at a long history length
// where the designs separate.
func runAblationEnhanced(ctx *Context) (Renderable, error) {
	return historySweep(ctx, "ablation-enhanced-bank0",
		"Enhanced bank-0 ablation (3x4k, partial update)",
		[]uint{8, 12, 16},
		[]sweepOrg{
			{"f0(V) bank0 (gskewed)", func(k uint) predictor.Spec {
				return predictor.Spec{Family: "gskewed", N: 12, Hist: k}
			}},
			{"addr-only bank0 (egskew)", func(k uint) predictor.Spec {
				return predictor.Spec{Family: "egskew", N: 12, Hist: k}
			}},
		})
}
