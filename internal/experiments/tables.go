package experiments

import (
	"fmt"

	"gskew/internal/report"
	"gskew/internal/trace"
	"gskew/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "table1",
		Title: "Conditional branch counts per benchmark",
		Paper: "Table 1: dynamic and static conditional branch counts of the six IBS benchmarks",
		Run:   runTable1,
	})
	register(Experiment{
		ID:    "table2",
		Title: "Unaliased (infinite-table) predictor characteristics",
		Paper: "Table 2: substream ratio, compulsory aliasing and 1-/2-bit misprediction, histories 4 and 12",
		Run:   runTable2,
	})
}

func runTable1(ctx *Context) (Renderable, error) {
	t := report.NewTable("Table 1: conditional branch counts",
		"benchmark", "dynamic", "static", "paper dynamic", "paper static", "scale")
	rows, err := mapBenchmarks(ctx, func(name string, branches []trace.Branch) ([]any, error) {
		st, err := trace.Measure(trace.NewSliceSource(branches))
		if err != nil {
			return nil, err
		}
		spec, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		return []any{name, st.Dynamic, st.Static,
			spec.DynamicBranches, spec.StaticBranches,
			fmt.Sprintf("%.2f", ctx.scale())}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}

// table2Cells holds one benchmark's Table 2 quantities for both
// history lengths, computed in a single scheduler cell.
type table2Cells struct {
	substream, compulsory [2]string
	rate1, rate2          [2]string
}

func runTable2(ctx *Context) (Renderable, error) {
	hists := []uint{4, 12}
	cells, err := mapBenchmarks(ctx, func(name string, branches []trace.Branch) (table2Cells, error) {
		var out table2Cells
		for i, k := range hists {
			// The 4-bit stream is the memoised substream profile fig1,
			// ext-opt, fig11 and ext-setassoc share; the 12-bit one is
			// interned here, without stack distances, and dropped.
			var p *substreamProfile
			if k == 4 {
				var err error
				if p, err = ctx.substreams(name, k); err != nil {
					return table2Cells{}, err
				}
			} else {
				p = internStream(branches, k)
			}
			out.rate1[i] = fmt.Sprintf("%.2f %%", p.unaliased(1, nil).MissPercent())
			out.rate2[i] = fmt.Sprintf("%.2f %%", p.unaliased(2, nil).MissPercent())
			out.substream[i] = fmt.Sprintf("%.2f", p.substreamRatio())
			// Compulsory aliasing: distinct (address, history) pairs per
			// dynamic conditional branch (section 3.1).
			out.compulsory[i] = fmt.Sprintf("%.2f %%",
				100*float64(len(p.addrs))/float64(len(p.ids)))
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	bundle := &Bundle{Title: "Table 2: unaliased predictor"}
	for i, k := range hists {
		t := report.NewTable(fmt.Sprintf("%d-bit history", k),
			"benchmark", "substream ratio", "compulsory aliasing", "mispredict 1-bit", "mispredict 2-bit")
		for j, name := range ctx.BenchmarkNames() {
			c := cells[j]
			t.AddRow(name, c.substream[i], c.compulsory[i], c.rate1[i], c.rate2[i])
		}
		bundle.Add(t)
	}
	return bundle, nil
}
