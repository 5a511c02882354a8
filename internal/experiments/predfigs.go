package experiments

import (
	"fmt"
	"math"

	"gskew/internal/predictor"
	"gskew/internal/report"
	"gskew/internal/sim"
	"gskew/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "fig5",
		Title: "gshare vs gskewed across table sizes, 4-bit history",
		Paper: "Figure 5: gskewed (partial update) matches gshare of ~2x storage once capacity aliasing vanishes",
		Run:   func(ctx *Context) (Renderable, error) { return runSizeSweep(ctx, "fig5", 4, []uint{10, 12, 14, 16}) },
	})
	register(Experiment{
		ID:    "fig6",
		Title: "gshare vs gskewed across table sizes, 12-bit history",
		Paper: "Figure 6: as Figure 5 with 12 history bits; gskewed also removes pathological cases (nroff)",
		Run:   func(ctx *Context) (Renderable, error) { return runSizeSweep(ctx, "fig6", 12, []uint{12, 14, 16, 18}) },
	})
	register(Experiment{
		ID:    "fig7",
		Title: "3x4k gskewed vs 16k gshare across history lengths",
		Paper: "Figure 7: despite 25% less storage, gskewed outperforms gshare on all benchmarks except real_gcc",
		Run:   runFig7,
	})
	register(Experiment{
		ID:    "fig8",
		Title: "3N-entry gskewed (partial/total) vs N-entry fully-associative LRU, 4-bit history",
		Paper: "Figure 8: gskewed with partial update ~= N-entry FA-LRU; total update slightly worse",
		Run:   runFig8,
	})
}

// runSizeSweep produces, per benchmark, misprediction curves over
// gshare table sizes 2^n for n in sizes, with a 3x2^(n-2)-entry
// gskewed (75% of the gshare storage at the same x position) as the
// paper's skewed counterpart. All configurations of a benchmark run in
// one trace pass.
func runSizeSweep(ctx *Context, id string, histBits uint, sizes []uint) (Renderable, error) {
	items, err := ctx.forEachBenchmark(func(name string, _ []trace.Branch) (Renderable, error) {
		fig := report.NewFigure(fmt.Sprintf("%s (%d-bit history)", name, histBits),
			"gshare entries", "miss %")
		specs := make([]predictor.Spec, 0, 2*len(sizes))
		for _, n := range sizes {
			fig.Xs = append(fig.Xs, float64(uint64(1)<<n))
			specs = append(specs,
				predictor.Spec{Family: "gshare", N: n, Hist: histBits},
				predictor.Spec{Family: "gskewed", N: n - 2, Hist: histBits})
		}
		results, err := ctx.RunSpecs(id+"/"+name, name, specs, sim.Options{})
		if err != nil {
			return nil, err
		}
		var gsh, gsk []float64
		for i := range sizes {
			gsh = append(gsh, results[2*i].MissPercent())
			gsk = append(gsk, results[2*i+1].MissPercent())
		}
		fig.AddSeries("gshare", gsh)
		fig.AddSeries("gskewed-3x(N/4)", gsk)
		return fig, nil
	})
	if err != nil {
		return nil, err
	}
	return &Bundle{
		Title: fmt.Sprintf("Misprediction %% vs size (%d-bit history)", histBits),
		Items: items,
	}, nil
}

// sweepOrg is one organisation of a history sweep: a series name and
// its spec at each history length.
type sweepOrg struct {
	name string
	spec func(k uint) predictor.Spec
}

// historySweep runs a set of organisations across history lengths and
// returns a per-benchmark bundle. The full (organisation, history)
// cross product of a benchmark runs in one trace pass.
func historySweep(ctx *Context, id, title string, hists []uint, preds []sweepOrg) (Renderable, error) {
	items, err := ctx.forEachBenchmark(func(name string, _ []trace.Branch) (Renderable, error) {
		fig := report.NewFigure(name, "history bits", "miss %")
		for _, k := range hists {
			fig.Xs = append(fig.Xs, float64(k))
		}
		specs := make([]predictor.Spec, 0, len(preds)*len(hists))
		for _, pd := range preds {
			for _, k := range hists {
				specs = append(specs, pd.spec(k))
			}
		}
		results, err := ctx.RunSpecs(id+"/"+name, name, specs, sim.Options{})
		if err != nil {
			return nil, err
		}
		for pi, pd := range preds {
			ys := make([]float64, len(hists))
			for ki := range hists {
				ys[ki] = results[pi*len(hists)+ki].MissPercent()
			}
			fig.AddSeries(pd.name, ys)
		}
		return fig, nil
	})
	if err != nil {
		return nil, err
	}
	return &Bundle{Title: title, Items: items}, nil
}

func runFig7(ctx *Context) (Renderable, error) {
	return historySweep(ctx, "fig7",
		"Misprediction % of 3x4k-gskewed vs 16k-gshare across history lengths",
		[]uint{0, 2, 4, 6, 8, 10, 12, 14, 16},
		[]sweepOrg{
			{"16k-gshare", func(k uint) predictor.Spec {
				return predictor.Spec{Family: "gshare", N: 14, Hist: k}
			}},
			{"3x4k-gskewed", func(k uint) predictor.Spec {
				return predictor.Spec{Family: "gskewed", N: 12, Hist: k}
			}},
		})
}

func runFig8(ctx *Context) (Renderable, error) {
	const histBits = 4
	sizes := []uint{8, 10, 12} // N = 256, 1k, 4k
	items, err := ctx.forEachBenchmark(func(name string, _ []trace.Branch) (Renderable, error) {
		fig := report.NewFigure(name, "N entries", "miss %")
		specs := make([]predictor.Spec, 0, 3*len(sizes))
		for _, n := range sizes {
			fig.Xs = append(fig.Xs, float64(uint64(1)<<n))
			specs = append(specs, predictor.Spec{Family: "assoc-lru", Entries: 1 << n, Hist: histBits})
			for _, pol := range []predictor.UpdatePolicy{predictor.PartialUpdate, predictor.TotalUpdate} {
				specs = append(specs, predictor.Spec{Family: "gskewed", N: n, Hist: histBits, Policy: pol})
			}
		}
		results, err := ctx.RunSpecs("fig8/"+name, name, specs, sim.Options{})
		if err != nil {
			return nil, err
		}
		var fa, partial, total []float64
		for i := range sizes {
			fa = append(fa, results[3*i].MissPercent())
			partial = append(partial, results[3*i+1].MissPercent())
			total = append(total, results[3*i+2].MissPercent())
		}
		fig.AddSeries("N-assoc-lru", fa)
		fig.AddSeries("3N-gskewed-partial", partial)
		fig.AddSeries("3N-gskewed-total", total)
		return fig, nil
	})
	if err != nil {
		return nil, err
	}
	return &Bundle{
		Title: "3N-entry gskewed vs N-entry fully-associative LRU (4-bit history)",
		Items: items,
	}, nil
}

// geomean of a slice of positive rates; used by summary rows.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			x = 1e-9
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
