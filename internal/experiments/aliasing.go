package experiments

import (
	"fmt"

	"gskew/internal/indexfn"
	"gskew/internal/report"
	"gskew/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Tagged-table miss ratios vs size, 4-bit history",
		Paper: "Figure 1: gshare-DM and gselect-DM vs fully-associative LRU; conflicts dominate beyond 4K entries",
		Run:   func(ctx *Context) (Renderable, error) { return runAliasFigure(ctx, 4, 6, 16, true) },
	})
	register(Experiment{
		ID:    "fig2",
		Title: "Tagged-table miss ratios vs size, 12-bit history",
		Paper: "Figure 2: as Figure 1 with 12 history bits; conflicts dominate beyond ~16K entries",
		Run:   func(ctx *Context) (Renderable, error) { return runAliasFigure(ctx, 12, 6, 18, false) },
	})
	register(Experiment{
		ID:    "fig3",
		Title: "Conflicts depend on the mapping function (worked example)",
		Paper: "Figure 3: a pair that conflicts under gshare but not gselect, and vice versa, in a 16-entry table",
		Run:   runFig3,
	})
	register(Experiment{
		ID:    "fig4",
		Title: "Skewed predictor structure (per-bank index dispersion demo)",
		Paper: "Figure 4: the 3-bank structure; conflicting vectors disperse across banks",
		Run:   runFig4,
	})
}

// runAliasFigure measures, per benchmark, tagged-table miss ratios for
// gshare-DM, gselect-DM (one table per size) and fully-associative LRU
// (all sizes at once from the stack-distance histogram), for table
// sizes 2^minBits..2^maxBits. Every table runs over the benchmark's
// substream profile; with shared set the profile comes from the
// Context memo (fig1's 4-bit profile also serves ext-opt and fig11),
// otherwise it is built for this figure alone.
func runAliasFigure(ctx *Context, histBits, minBits, maxBits uint, shared bool) (Renderable, error) {
	items, err := ctx.forEachBenchmark(func(name string, branches []trace.Branch) (Renderable, error) {
		var p *substreamProfile
		if shared {
			var err error
			if p, err = ctx.substreams(name, histBits); err != nil {
				return nil, err
			}
		} else {
			p = buildProfile(branches, histBits)
		}
		fig := report.NewFigure(fmt.Sprintf("%s (%d-bit history)", name, histBits),
			"entries", "miss %")
		var gsh, gsel, fa []float64
		for n := minBits; n <= maxBits; n += 2 {
			fig.Xs = append(fig.Xs, float64(uint64(1)<<n))
			gsh = append(gsh, 100*p.dmMissRatio(indexfn.NewGShare(n, histBits)))
			gsel = append(gsel, 100*p.dmMissRatio(indexfn.NewGSelect(n, histBits)))
			fa = append(fa, 100*p.sd.MissRatioAt(1<<n))
		}
		fig.AddSeries("gshare-dm", gsh)
		fig.AddSeries("gselect-dm", gsel)
		fig.AddSeries("fully-assoc-lru", fa)
		return fig, nil
	})
	if err != nil {
		return nil, err
	}
	return &Bundle{
		Title: fmt.Sprintf("Tagged-table miss percentages (%d-bit history)", histBits),
		Items: items,
	}, nil
}

func runFig3(*Context) (Renderable, error) {
	// 16-entry table, 2 history bits — a concrete reconstruction of
	// the paper's example: the conflicting pairs differ between the
	// two mappings.
	gsh := indexfn.NewGShare(4, 2)
	gsel := indexfn.NewGSelect(4, 2)
	t := report.NewTable("Figure 3: conflicts depend on the mapping function",
		"pair", "addr", "hist", "gshare idx", "gselect idx", "conflict under")

	type ref struct{ addr, hist uint64 }
	pairs := [][2]ref{
		// Collides under gshare (a ^ h<<2 equal), separated by gselect.
		{{0b0000, 0b00}, {0b0100, 0b01}},
		// Collides under gselect (same low addr bits + hist),
		// separated by gshare.
		{{0b0110, 0b11}, {0b1010, 0b11}},
	}
	for i, pr := range pairs {
		i0g, i1g := gsh.Index(pr[0].addr, pr[0].hist), gsh.Index(pr[1].addr, pr[1].hist)
		i0s, i1s := gsel.Index(pr[0].addr, pr[0].hist), gsel.Index(pr[1].addr, pr[1].hist)
		verdict := "neither"
		switch {
		case i0g == i1g && i0s == i1s:
			verdict = "both"
		case i0g == i1g:
			verdict = "gshare only"
		case i0s == i1s:
			verdict = "gselect only"
		}
		for j, r := range pr {
			t.AddRow(fmt.Sprintf("P%d.%d", i+1, j+1),
				fmt.Sprintf("%04b", r.addr), fmt.Sprintf("%02b", r.hist),
				fmt.Sprintf("%d", gsh.Index(r.addr, r.hist)),
				fmt.Sprintf("%d", gsel.Index(r.addr, r.hist)),
				verdict)
		}
	}
	return t, nil
}

func runFig4(*Context) (Renderable, error) {
	// Show the defining behaviour of the structure in Figure 4: two
	// vectors that collide in one bank spread apart in the others.
	s := newDemoSkewer()
	t := report.NewTable("Figure 4: per-bank indices of conflicting vectors (16-entry banks)",
		"vector", "f0", "f1", "f2")
	v, w := findDemoCollision(s)
	for _, x := range []uint64{v, w} {
		t.AddRow(fmt.Sprintf("%#06x", x),
			fmt.Sprintf("%d", s.F0(x)), fmt.Sprintf("%d", s.F1(x)), fmt.Sprintf("%d", s.F2(x)))
	}
	return t, nil
}
