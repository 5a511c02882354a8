package experiments

import (
	"fmt"

	"gskew/internal/model"
	"gskew/internal/predictor"
	"gskew/internal/report"
	"gskew/internal/sim"
	"gskew/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "fig9",
		Title: "Analytical destructive-aliasing curves (full range)",
		Paper: "Figure 9: P_dm = p/2 vs P_sk = (3/4)p^2(1-p) + p^3/2 at b = 1/2 over p in [0,1]",
		Run:   func(*Context) (Renderable, error) { return modelCurves(0, 1, 21), nil },
	})
	register(Experiment{
		ID:    "fig10",
		Title: "Analytical destructive-aliasing curves (small-p region)",
		Paper: "Figure 10: the magnified low-aliasing region where the polynomial beats the linear curve",
		Run:   func(*Context) (Renderable, error) { return modelCurves(0, 0.2, 21), nil },
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Extrapolated (analytical model) vs measured misprediction, 4-bit history",
		Paper: "Figure 11: the model tracks measured gskewed rates, slightly overestimating (constructive aliasing)",
		Run:   runFig11,
	})
	register(Experiment{
		ID:    "fig12",
		Title: "Enhanced gskewed vs gskewed vs 32k gshare across history lengths",
		Paper: "Figure 12: e-gskew diverges from gskewed above ~8-10 history bits and matches a 2x-storage gshare",
		Run:   runFig12,
	})
}

func modelCurves(lo, hi float64, points int) Renderable {
	fig := report.NewFigure(
		fmt.Sprintf("Destructive aliasing probability, b = 0.5, p in [%g,%g]", lo, hi),
		"per-bank aliasing probability p", "P(deviation from unaliased)")
	var dm, sk []float64
	for i := 0; i < points; i++ {
		p := lo + (hi-lo)*float64(i)/float64(points-1)
		fig.Xs = append(fig.Xs, p)
		dm = append(dm, model.PDirectWorstCase(p))
		sk = append(sk, model.PSkewWorstCase(p))
	}
	fig.AddSeries("P_dm (1-bank)", dm)
	fig.AddSeries("P_sk (3-bank skewed)", sk)
	return fig
}

func runFig11(ctx *Context) (Renderable, error) {
	// Model assumptions: 1-bit automata, total update, 4-bit history.
	const histBits = 4
	const bankBits = 12 // 3x4k gskewed
	t := report.NewTable("Figure 11: extrapolated vs measured misprediction % (3x4k gskewed, 1-bit, total update, 4-bit history)",
		"benchmark", "unaliased %", "overhead (model) %", "extrapolated %", "measured %")
	rows, err := mapBenchmarks(ctx, func(name string, branches []trace.Branch) ([]any, error) {
		// The shared 4-bit substream profile (fig1 builds it) gives the
		// bias b — the density of static (address, history) pairs
		// biased taken — and the last-use distance stream feeding the
		// model.
		p, err := ctx.substreams(name, histBits)
		if err != nil {
			return nil, err
		}
		biasedTaken := 0
		for id, total := range p.total {
			if 2*p.taken[id] >= total {
				biasedTaken++
			}
		}
		b := float64(biasedTaken) / float64(len(p.total))

		// Unaliased 1-bit misprediction rate (Table 2 methodology).
		u := predictor.NewUnaliased(histBits, 1)
		resU, err := sim.RunBranches(branches, u, sim.Options{SkipFirstUse: true})
		if err != nil {
			return nil, err
		}

		// Model extrapolation over the measured distance stream.
		ex := model.NewExtrapolator(1<<bankBits, b)
		for _, d := range p.dists {
			ex.Observe(int(d))
		}
		extrapolated := 100 * ex.Extrapolate(resU.MissRate())

		// Measured: actual 3x4k gskewed, 1-bit counters, total update.
		gs := predictor.MustGSkewed(predictor.Config{
			BankBits:    bankBits,
			HistoryBits: histBits,
			CounterBits: 1,
			Policy:      predictor.TotalUpdate,
		})
		resM, err := sim.RunBranches(branches, gs, sim.Options{})
		if err != nil {
			return nil, err
		}

		return []any{name,
			fmt.Sprintf("%.2f", resU.MissPercent()),
			fmt.Sprintf("%.2f", 100*ex.MispredictOverhead()),
			fmt.Sprintf("%.2f", extrapolated),
			fmt.Sprintf("%.2f", resM.MissPercent())}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}

func runFig12(ctx *Context) (Renderable, error) {
	return historySweep(ctx, "fig12",
		"Misprediction % of enhanced gskewed (3x4k) vs gskewed (3x4k) vs 32k gshare",
		[]uint{0, 2, 4, 6, 8, 10, 12, 14, 16},
		[]sweepOrg{
			{"32k-gshare", func(k uint) predictor.Spec {
				return predictor.Spec{Family: "gshare", N: 15, Hist: k}
			}},
			{"3x4k-gskewed", func(k uint) predictor.Spec {
				return predictor.Spec{Family: "gskewed", N: 12, Hist: k}
			}},
			{"3x4k-egskew", func(k uint) predictor.Spec {
				return predictor.Spec{Family: "egskew", N: 12, Hist: k}
			}},
		})
}
