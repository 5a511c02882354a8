package experiments

import (
	"fmt"

	"gskew/internal/algotrace"
	"gskew/internal/alias"
	"gskew/internal/history"
	"gskew/internal/indexfn"
	"gskew/internal/predictor"
	"gskew/internal/report"
	"gskew/internal/sim"
	"gskew/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "ext-realwork",
		Title: "Real-algorithm streams: analytic MP/KMP validation, matched budgets, three Cs",
		Paper: "Nicaud/Pivoteau/Vialette (arXiv 2503.13694) derive expected miss rates of real Morris-Pratt/KMP code under first-order predictors; our recorded streams must reproduce them, and the paper's conflict/capacity trade is then measured on real-program branches",
		Run:   runExtRealwork,
	})
}

// realworkTolerancePP is the acceptance tolerance between the
// analytic expectation and the simulated rate on the ≥1M-branch
// validation streams, in absolute percentage points. Violations are a
// hard experiment error, not a footnote: the analytic model is an
// external oracle for the whole record→encode→simulate pipeline.
const realworkTolerancePP = 1.0

type realworkStream struct {
	label, spec string
}

// realworkValidation are the MP/KMP streams checked against the
// analytic chain. Each records >= 4 conditionals per text character,
// so n=300000 yields >= 1.2M-branch streams.
func realworkValidation() []realworkStream {
	return []realworkStream{
		{"mp  m=8 s=2 rand", "algo:mp,n=300000,m=8,sigma=2,pat=rand,seed=2"},
		{"kmp m=8 s=2 rand", "algo:kmp,n=300000,m=8,sigma=2,pat=rand,seed=2"},
		{"mp  m=4 s=4 rand", "algo:mp,n=300000,m=4,sigma=4,pat=rand,seed=5"},
		{"kmp m=6 s=2 uni", "algo:kmp,n=300000,m=6,pat=uni,seed=3"},
		{"mp  m=6 bern.7 alt", "algo:mp,n=300000,m=6,dist=bern,p=0.7,pat=alt,seed=7"},
		{"kmp m=6 bern.7 alt", "algo:kmp,n=300000,m=6,dist=bern,p=0.7,pat=alt,seed=7"},
	}
}

// realworkContest is one stream per recorded-algorithm family, raced
// under matched ~1Kbit predictors and decomposed into the three Cs.
func realworkContest() []realworkStream {
	return []realworkStream{
		{"mp", "algo:mp,n=100000,seed=2"},
		{"kmp", "algo:kmp,n=100000,seed=2"},
		{"binsearch", "algo:binsearch,n=4096,q=20000,seed=2"},
		{"insertion", "algo:insertion,n=512,runs=4,sorted=0,seed=2"},
		{"quick", "algo:quick,n=4096,runs=4,sorted=0,seed=2"},
		{"heap", "algo:heap,n=4096,runs=4,sorted=0,seed=2"},
		{"scanmax", "algo:scanmax,n=65536,runs=4,seed=2"},
	}
}

// mapStreams runs fn once per stream as independent scheduler cells
// and returns the results in list order, so rendered output is
// deterministic across -jobs. fn reads its stream itself (through
// RunSpecs or Context.source): each pass re-records the algorithm and
// streams it, so no recorded stream is held.
func mapStreams[T any](ctx *Context, streams []realworkStream, fn func(s realworkStream) (T, error)) ([]T, error) {
	results := make([]T, len(streams))
	err := ctx.sched().Map(len(streams), func(i int) error {
		r, err := fn(streams[i])
		if err != nil {
			return fmt.Errorf("%s: %w", streams[i].spec, err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// runExtRealwork validates the recorded MP/KMP streams against the
// analytic Markov-chain oracle, then runs the paper's comparison —
// matched small budgets, three-Cs decomposition — on real-program
// branches.
func runExtRealwork(ctx *Context) (Renderable, error) {
	// Table A: measured vs analytic under first-order per-site
	// counters. The measured side is a 16-entry bimodal table: the
	// matchers declare <= 5 consecutive site PCs inside a 256-aligned
	// region, so low-PC-bits indexing gives every site a private
	// counter — exactly the predictor the analytic chain models.
	valTable := report.NewTable(
		fmt.Sprintf("Measured vs analytic miss %% (per-site counters; tolerance %.1f pp)", realworkTolerancePP),
		"stream", "branches", "analytic c1", "measured c1", "|d1| pp", "analytic c2", "measured c2", "|d2| pp")
	type valRow struct {
		row  []any
		errs []error
	}
	valRows, err := mapStreams(ctx, realworkValidation(), func(s realworkStream) (valRow, error) {
		spec, err := algotrace.ParseSpec(s.spec)
		if err != nil {
			return valRow{}, err
		}
		// Context.SeedOffset shifts algo seeds like benchmark seeds
		// (see workload.MaterializeAny); shift the analyzed spec the
		// same way so oracle and stream describe the same instance.
		spec.Seed += ctx.SeedOffset
		results, err := ctx.RunSpecs("ext-realwork/val/"+s.label, s.spec, []predictor.Spec{
			specOf("bimodal:n=4,ctr=1"),
			specOf("bimodal:n=4,ctr=2"),
		}, sim.Options{})
		if err != nil {
			return valRow{}, err
		}
		row := []any{s.label, results[0].Conditionals}
		var errs []error
		for bits, r := range results {
			an, err := algotrace.AnalyzeMatch(spec, uint(bits+1))
			if err != nil {
				return valRow{}, err
			}
			predicted := 100 * an.MissRate
			measured := r.MissPercent()
			diff := measured - predicted
			if diff < 0 {
				diff = -diff
			}
			row = append(row,
				fmt.Sprintf("%.3f", predicted),
				fmt.Sprintf("%.3f", measured),
				fmt.Sprintf("%.3f", diff))
			if diff > realworkTolerancePP {
				errs = append(errs, fmt.Errorf(
					"ext-realwork: %s ctr=%d: measured %.3f%% vs analytic %.3f%% exceeds %.1f pp tolerance",
					s.spec, bits+1, measured, predicted, realworkTolerancePP))
			}
		}
		return valRow{row: row, errs: errs}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, vr := range valRows {
		if len(vr.errs) > 0 {
			return nil, vr.errs[0]
		}
		valTable.AddRow(vr.row...)
	}

	// Table B: the contenders of the paper's storage story at matched
	// ~1Kbit budgets, now fed real branches. Real algorithm kernels
	// have tiny static footprints, so small tables isolate the
	// history/aliasing behaviour rather than sheer capacity.
	contenders := []struct{ label, spec string }{
		{"bimodal-512", "bimodal:n=9,ctr=2"},
		{"gshare-512", "gshare:n=9,k=8,ctr=2"},
		{"gskewed-3x128", "gskewed:n=7,k=8,banks=3,ctr=2,policy=partial"},
		{"tage-4x32", "tage:n=5,k=20,kmin=4,tables=4,tag=8,ctr=3"},
	}
	cols := []string{"stream", "branches"}
	for _, c := range contenders {
		bits := predictor.MustParseSpec(c.spec).StorageBits()
		cols = append(cols, fmt.Sprintf("%s (%db)", c.label, bits))
	}
	contest := report.NewTable("Miss % at matched small budgets on recorded real algorithms", cols...)
	contestRows, err := mapStreams(ctx, realworkContest(), func(s realworkStream) ([]any, error) {
		specs := make([]predictor.Spec, len(contenders))
		for i, c := range contenders {
			specs[i] = specOf(c.spec)
		}
		results, err := ctx.RunSpecs("ext-realwork/contest/"+s.label, s.spec, specs, sim.Options{})
		if err != nil {
			return nil, err
		}
		row := []any{s.label, results[0].Conditionals}
		for _, r := range results {
			row = append(row, fmt.Sprintf("%.2f", r.MissPercent()))
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range contestRows {
		contest.AddRow(row...)
	}

	// Table C: the paper's three-Cs decomposition on real streams,
	// over the 64-entry gshare index the small budgets share. With a
	// handful of static sites crossed with 8 bits of history, the
	// (address, history) working set overflows 64 entries and the
	// conflict/capacity split becomes visible on real code.
	threec := report.NewTable("Three-Cs decomposition, 64-entry gshare index (n=6, h=8)",
		"stream", "compulsory %", "capacity %", "conflict %", "total aliased %")
	crows, err := mapStreams(ctx, realworkContest(), func(s realworkStream) ([]any, error) {
		src, err := ctx.source(s.spec)
		if err != nil {
			return nil, err
		}
		cl := alias.NewClassifier(indexfn.NewGShare(6, 8))
		ghr := history.NewGlobal(8)
		err = trace.Blocks(src, func(block []trace.Branch) error {
			for _, b := range block {
				if b.Kind == trace.Conditional {
					cl.Observe(b.PC, ghr.Bits())
				}
				ghr.Shift(b.Taken)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		st := cl.Stats()
		return []any{s.label,
			fmt.Sprintf("%.3f", 100*st.CompulsoryRatio()),
			fmt.Sprintf("%.3f", 100*st.CapacityRatio()),
			fmt.Sprintf("%.3f", 100*st.ConflictRatio()),
			fmt.Sprintf("%.3f", 100*st.TotalRatio())}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range crows {
		threec.AddRow(row...)
	}

	return (&Bundle{Title: "Recorded real-algorithm workloads vs the analytic oracle"}).
		Add(valTable).Add(contest).Add(threec), nil
}
