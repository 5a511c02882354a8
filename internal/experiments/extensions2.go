package experiments

import (
	"fmt"

	"gskew/internal/alias"
	"gskew/internal/history"
	"gskew/internal/indexfn"
	"gskew/internal/model"
	"gskew/internal/predictor"
	"gskew/internal/report"
	"gskew/internal/sim"
	"gskew/internal/skewfn"
	"gskew/internal/trace"
	"gskew/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "ext-interference",
		Title: "Destructive vs constructive vs harmless interference (Young et al. classification)",
		Paper: "Section 1 quotes [21]: 'constructive aliasing is much less likely than destructive aliasing'",
		Run:   runExtInterference,
	})
	register(Experiment{
		ID:    "ext-quantum",
		Title: "Context-switch quantum sensitivity",
		Paper: "Section 1's OS/multi-process motivation: finer multiprogramming raises aliasing pressure",
		Run:   runExtQuantum,
	})
}

func runExtInterference(ctx *Context) (Renderable, error) {
	const histBits = 8
	bundle := &Bundle{Title: "Interference classification of a single-bank gshare (8-bit history)"}
	for _, entriesBits := range []uint{10, 14} {
		t := report.NewTable(fmt.Sprintf("%d-entry gshare", 1<<entriesBits),
			"benchmark", "aliased %", "harmless %", "destructive %", "constructive %", "destr/constr")
		rows, err := mapBenchmarks(ctx, func(name string, branches []trace.Branch) ([]any, error) {
			n := alias.NewInterference(indexfn.NewGShare(entriesBits, histBits), 2)
			ghr := history.NewGlobal(histBits)
			for _, b := range branches {
				if b.Kind == trace.Conditional {
					n.Observe(b.PC, ghr.Bits(), b.Taken)
				}
				ghr.Shift(b.Taken)
			}
			st := n.Stats()
			refs := float64(st.References)
			dc := "inf"
			if st.Constructive > 0 {
				dc = fmt.Sprintf("%.1fx", float64(st.Destructive)/float64(st.Constructive))
			}
			return []any{name,
				fmt.Sprintf("%.2f", 100*float64(st.Aliased())/refs),
				fmt.Sprintf("%.2f", 100*float64(st.Harmless)/refs),
				fmt.Sprintf("%.2f", 100*st.DestructiveRatio()),
				fmt.Sprintf("%.2f", 100*st.ConstructiveRatio()),
				dc}, nil
		})
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			t.AddRow(row...)
		}
		bundle.Add(t)
	}
	return bundle, nil
}

// runExtQuantum regenerates one benchmark with a range of scheduler
// quanta and measures how multiprogramming granularity drives
// misprediction for a fixed 16k gshare (h=8) — finer interleaving
// means more cross-process conflicts, the OS effect motivating the
// paper's interest in large workloads. Each quantum is an independent
// scheduler cell; its trace is not the cached benchmark trace, and
// streams from its generator straight into the simulator.
func runExtQuantum(ctx *Context) (Renderable, error) {
	const histBits = 8
	spec, err := workload.ByName("gs") // 3 processes: most interleaving
	if err != nil {
		return nil, err
	}
	fig := report.NewFigure("gs: misprediction vs scheduler quantum (16k gshare vs 3x4k egskew, h=8)",
		"quantum (branches)", "miss %")
	quanta := []int{100, 400, 1600, 6400, 25600}
	gsh := make([]float64, len(quanta))
	egs := make([]float64, len(quanta))
	err = ctx.sched().Map(len(quanta), func(i int) error {
		s := spec
		s.Quantum = quanta[i]
		g, err := workload.New(s, workload.Config{Scale: ctx.scale() / 2, SeedOffset: ctx.SeedOffset})
		if err != nil {
			return err
		}
		results, err := ctx.RunMany(fmt.Sprintf("ext-quantum/q%d", quanta[i]), workload.NewTake(g, g.Length()),
			[]predictor.Predictor{
				predictor.MustSpec(predictor.Spec{Family: "gshare", N: 14, Hist: histBits}),
				predictor.MustSpec(predictor.Spec{Family: "egskew", N: 12, Hist: histBits}),
			}, sim.Options{})
		if err != nil {
			return err
		}
		gsh[i] = results[0].MissPercent()
		egs[i] = results[1].MissPercent()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, q := range quanta {
		fig.Xs = append(fig.Xs, float64(q))
	}
	fig.AddSeries("16k-gshare", gsh)
	fig.AddSeries("3x4k-egskew", egs)
	return fig, nil
}

func init() {
	register(Experiment{
		ID:    "ext-flush",
		Title: "Predictor-state flush sensitivity (context-switch state loss)",
		Paper: "Related work [4] (Evers et al.): prediction accuracy in the presence of context switches",
		Run:   runExtFlush,
	})
	register(Experiment{
		ID:    "ext-model-m",
		Title: "M-bank analytical curves (formula 3 generalised)",
		Paper: "Section 7: 'in an M-bank skewed organisation, it increases as an M-th degree polynomial'",
		Run:   runExtModelM,
	})
}

func runExtFlush(ctx *Context) (Renderable, error) {
	const histBits = 8
	items, err := ctx.forEachBenchmark(func(name string, branches []trace.Branch) (Renderable, error) {
		fig := report.NewFigure(name, "flush interval (cond. branches)", "miss %")
		intervals := []int{2000, 8000, 32000, 128000, 0} // 0 = never
		var gsh, egs []float64
		for _, iv := range intervals {
			x := float64(iv)
			if iv == 0 {
				x = float64(len(branches)) // plot "never" at the right edge
			}
			fig.Xs = append(fig.Xs, x)
			// Both organisations share one trace pass per interval (the
			// flush schedule is part of Options, identical for both).
			results, err := ctx.RunSpecs(fmt.Sprintf("ext-flush-iv%d/%s", iv, name), name,
				[]predictor.Spec{
					{Family: "gshare", N: 14, Hist: histBits},
					{Family: "egskew", N: 12, Hist: histBits},
				}, sim.Options{FlushEvery: iv})
			if err != nil {
				return nil, err
			}
			gsh = append(gsh, results[0].MissPercent())
			egs = append(egs, results[1].MissPercent())
		}
		fig.AddSeries("16k-gshare", gsh)
		fig.AddSeries("3x4k-egskew", egs)
		return fig, nil
	})
	if err != nil {
		return nil, err
	}
	return &Bundle{Title: "Misprediction vs predictor-flush interval (8-bit history; right edge = never flushed)", Items: items}, nil
}

func runExtModelM(*Context) (Renderable, error) {
	fig := report.NewFigure("Deviation probability vs per-bank aliasing p (b = 0.5), M banks",
		"p", "P(deviation)")
	const points = 21
	for i := 0; i < points; i++ {
		fig.Xs = append(fig.Xs, float64(i)/(points-1))
	}
	for _, m := range []int{1, 3, 5, 7} {
		ys := make([]float64, points)
		for i := range ys {
			ys[i] = model.PSkewM(float64(i)/(points-1), 0.5, m)
		}
		fig.AddSeries(fmt.Sprintf("M=%d", m), ys)
	}
	return fig, nil
}

func init() {
	register(Experiment{
		ID:    "ext-rivals",
		Title: "The anti-aliasing class of 1997: gskewed vs agree vs bi-mode",
		Paper: "Contemporaneous alternatives attacking the same conflict aliasing the paper names (Sprangle et al. ISCA'97, Lee et al. MICRO'97)",
		Run:   runExtRivals,
	})
}

func runExtRivals(ctx *Context) (Renderable, error) {
	const histBits = 8
	t := report.NewTable("1997 anti-aliasing proposals at ~24-34 Kbit (miss %, 8-bit history)",
		"benchmark", "gshare 16k (32Kb)", "agree 16k (34Kb)", "bimode 2x8k+4k (40Kb)", "gskewed 3x4k (24Kb)", "egskew 3x4k (24Kb)")
	rows, err := compareRows(ctx, "ext-rivals", []predictor.Spec{
		specOf("gshare:n=14,k=8,ctr=2"),
		specOf("agree:n=14,k=8,bias=10,ctr=2"),
		specOf("bimode:n=13,k=8,choice=11,ctr=2"),
		specOf("gskewed:n=12,k=8,banks=3,ctr=2,policy=partial"),
		specOf("egskew:n=12,k=8,ctr=2,policy=partial"),
	}, sim.Options{})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}

func init() {
	register(Experiment{
		ID:    "ext-ev8",
		Title: "2Bc-gskew: the Alpha EV8 descendant of this paper's predictor",
		Paper: "Where the design shipped: Seznec et al., ISCA 2002 — bimodal + skewed banks + meta chooser",
		Run:   runExtEV8,
	})
}

func runExtEV8(ctx *Context) (Renderable, error) {
	t := report.NewTable("2Bc-gskew (4x4k, h6/h14, 32 Kbit) vs its ancestors (miss %)",
		"benchmark", "16k-gshare h8 (32Kb)", "3x4k-egskew h8 (24Kb)", "4x4k-2bcgskew h6/h14 (32Kb)")
	rows, err := compareRows(ctx, "ext-ev8", []predictor.Spec{
		specOf("gshare:n=14,k=8,ctr=2"),
		specOf("egskew:n=12,k=8,ctr=2,policy=partial"),
		specOf("2bcgskew:n=12,ks=6,k=14"),
	}, sim.Options{})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}

func init() {
	register(Experiment{
		ID:    "ext-besthist",
		Title: "Best history length per organisation",
		Paper: "Section 6: '8 to 10 seems a reasonable history length for a 3x4K gskewed; for enhanced gskewed, 11 or 12'",
		Run:   runExtBestHist,
	})
}

// runExtBestHist sweeps history lengths and reports, per benchmark and
// organisation, the history that minimises misprediction — the
// quantity behind the paper's section-6 guidance. At reduced trace
// scale the optima sit a little lower than the paper's (aliasing
// pressure is relatively higher); the egskew optimum must nonetheless
// exceed the gskewed optimum. The full organisation x history cross
// product of a benchmark (27 predictors) is one RunSpecs request.
func runExtBestHist(ctx *Context) (Renderable, error) {
	hists := []uint{0, 2, 4, 6, 8, 10, 12, 14, 16}
	orgs := []sweepOrg{
		{"16k-gshare", func(k uint) predictor.Spec {
			return predictor.Spec{Family: "gshare", N: 14, Hist: k}
		}},
		{"3x4k-gskewed", func(k uint) predictor.Spec {
			return predictor.Spec{Family: "gskewed", N: 12, Hist: k}
		}},
		{"3x4k-egskew", func(k uint) predictor.Spec {
			return predictor.Spec{Family: "egskew", N: 12, Hist: k}
		}},
	}
	t := report.NewTable("Best history length (argmin misprediction over h = 0..16)",
		"benchmark", "gshare best h (miss %)", "gskewed best h (miss %)", "egskew best h (miss %)")
	rows, err := mapBenchmarks(ctx, func(name string, _ []trace.Branch) ([]any, error) {
		specs := make([]predictor.Spec, 0, len(orgs)*len(hists))
		for _, o := range orgs {
			for _, k := range hists {
				specs = append(specs, o.spec(k))
			}
		}
		results, err := ctx.RunSpecs("ext-besthist/"+name, name, specs, sim.Options{})
		if err != nil {
			return nil, err
		}
		cells := []any{name}
		for oi := range orgs {
			bestH, bestRate := uint(0), 1e18
			for ki, k := range hists {
				if r := results[oi*len(hists)+ki].MissPercent(); r < bestRate {
					bestRate, bestH = r, k
				}
			}
			cells = append(cells, fmt.Sprintf("h=%d (%.2f)", bestH, bestRate))
		}
		return cells, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}

func init() {
	register(Experiment{
		ID:    "ext-setassoc",
		Title: "Associativity vs skewing: tagged set-associative miss ratios",
		Paper: "Section 3.3: associativity removes conflicts but costs tags; skewing must clear the same bar tag-free",
		Run:   runExtSetAssoc,
	})
}

// runExtSetAssoc measures, at equal total capacity, how much aliasing
// each degree of tagged associativity removes — the bar the tag-free
// skewed organisation competes against. The skewed column reports the
// aliasing-equivalent quantity for a 3-bank skew: the fraction of
// references whose majority is aliased (>= 2 banks hold a different
// vector), measured with tagged banks.
func runExtSetAssoc(ctx *Context) (Renderable, error) {
	const histBits = 4
	const totalBits = 12 // 4096 entries total for every organisation
	items, err := ctx.forEachBenchmark(func(name string, branches []trace.Branch) (Renderable, error) {
		dm := alias.NewTaggedSA(indexfn.NewGShare(totalBits, histBits), 1)
		w2 := alias.NewTaggedSA(indexfn.NewGShare(totalBits-1, histBits), 2)
		w4 := alias.NewTaggedSA(indexfn.NewGShare(totalBits-2, histBits), 4)
		fa := alias.NewTaggedFA(1<<totalBits, histBits)

		// Skewed banks as tagged tables: 3 banks of a third... use
		// 3 x 2^(totalBits-2) tagged-DM banks indexed by f0/f1/f2 and
		// count references aliased in >= 2 banks (those are the ones a
		// majority vote cannot rescue).
		sk := skewfn.New(totalBits - 2)
		bankTags := make([][]uint64, 3)
		bankValid := make([][]bool, 3)
		for i := range bankTags {
			bankTags[i] = make([]uint64, 1<<(totalBits-2))
			bankValid[i] = make([]bool, 1<<(totalBits-2))
		}
		skewMajorityAliased, refs := 0, 0

		ghr := history.NewGlobal(histBits)
		for _, b := range branches {
			if b.Kind == trace.Conditional {
				dm.Observe(b.PC, ghr.Bits())
				w2.Observe(b.PC, ghr.Bits())
				w4.Observe(b.PC, ghr.Bits())
				fa.Observe(b.PC, ghr.Bits())
				v := indexfn.Vector(b.PC, ghr.Bits(), histBits)
				aliased := 0
				for k := 0; k < 3; k++ {
					idx := sk.Index(k, v)
					if !bankValid[k][idx] || bankTags[k][idx] != v {
						aliased++
					}
					bankValid[k][idx] = true
					bankTags[k][idx] = v
				}
				if aliased >= 2 {
					skewMajorityAliased++
				}
				refs++
			}
			ghr.Shift(b.Taken)
		}

		t := report.NewTable(name,
			"organisation (4k entries total)", "miss / majority-aliased %")
		t.AddRow("direct-mapped", fmt.Sprintf("%.3f", 100*dm.MissRatio()))
		t.AddRow("2-way LRU (tagged)", fmt.Sprintf("%.3f", 100*w2.MissRatio()))
		t.AddRow("4-way LRU (tagged)", fmt.Sprintf("%.3f", 100*w4.MissRatio()))
		t.AddRow("fully-assoc LRU (tagged)", fmt.Sprintf("%.3f", 100*fa.MissRatio()))
		t.AddRow("3-bank skew, majority aliased (tag-free)",
			fmt.Sprintf("%.3f", 100*float64(skewMajorityAliased)/float64(refs)))
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	return &Bundle{
		Title: "Aliasing removed by associativity vs skewing (4-bit history, equal capacity)",
		Items: items,
	}, nil
}
