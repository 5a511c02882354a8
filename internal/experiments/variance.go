package experiments

import (
	"fmt"

	"gskew/internal/predictor"
	"gskew/internal/report"
	"gskew/internal/sim"
	"gskew/internal/stats"
	"gskew/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "ext-variance",
		Title: "Seed-replicate variance of the headline comparison",
		Paper: "Methodological robustness: do the conclusions survive workload-generation noise?",
		Run:   runExtVariance,
	})
}

// runExtVariance regenerates each benchmark with several seeds and
// summarises the gshare-vs-egskew comparison with confidence
// intervals: the claim "3x4k e-gskew matches a 16k gshare" should hold
// for the mean difference, not just one lucky trace.
func runExtVariance(ctx *Context) (Renderable, error) {
	const histBits = 8
	const replicates = 5
	t := report.NewTable(
		fmt.Sprintf("Seed variance over %d replicates (16k-gshare vs 3x4k-egskew, h=%d): miss %% mean ± CI95",
			replicates, histBits),
		"benchmark", "gshare", "egskew", "delta (gshare − egskew)", "significant?")
	// Each (benchmark, replicate) is an independent scheduler cell: the
	// replicate traces are seed-perturbed regenerations, not the cached
	// benchmark traces, so they bypass the Context cache on purpose and
	// stream from their generators straight into the simulator.
	names := ctx.BenchmarkNames()
	gsh := make([][]float64, len(names))
	egs := make([][]float64, len(names))
	for i := range names {
		gsh[i] = make([]float64, replicates)
		egs[i] = make([]float64, replicates)
	}
	err := ctx.sched().Map(len(names)*replicates, func(cell int) error {
		bi, rep := cell/replicates, cell%replicates
		spec, err := workload.ByName(names[bi])
		if err != nil {
			return err
		}
		g, err := workload.New(spec, workload.Config{
			Scale:      ctx.scale() / 2, // replicates multiply the work
			SeedOffset: ctx.SeedOffset + uint64(rep)*0x9e3779b9,
		})
		if err != nil {
			return err
		}
		results, err := ctx.RunMany(fmt.Sprintf("ext-variance/%s-r%d", names[bi], rep), workload.NewTake(g, g.Length()),
			[]predictor.Predictor{
				predictor.MustSpec(predictor.Spec{Family: "gshare", N: 14, Hist: histBits}),
				predictor.MustSpec(predictor.Spec{Family: "egskew", N: 12, Hist: histBits}),
			}, sim.Options{})
		if err != nil {
			return err
		}
		gsh[bi][rep] = results[0].MissPercent()
		egs[bi][rep] = results[1].MissPercent()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		delta, err := stats.PairedDelta(gsh[i], egs[i])
		if err != nil {
			return nil, err
		}
		sig, err := stats.SignificantlyDifferent(gsh[i], egs[i])
		if err != nil {
			return nil, err
		}
		sGsh, sEgs := stats.Summarize(gsh[i]), stats.Summarize(egs[i])
		t.AddRow(name,
			fmt.Sprintf("%.2f ± %.2f", sGsh.Mean, sGsh.CI95()),
			fmt.Sprintf("%.2f ± %.2f", sEgs.Mean, sEgs.CI95()),
			fmt.Sprintf("%+.3f ± %.3f", delta.Mean, delta.CI95()),
			fmt.Sprintf("%v", sig))
	}
	return t, nil
}
