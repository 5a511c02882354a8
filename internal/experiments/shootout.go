package experiments

import (
	"fmt"

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
		ID:    "ext-shootout",
		Title: "Storage-equalized shoot-out: skewed class vs TAGE vs hashed perceptron",
		Paper: "Section 7 asks what succeeds the skewed organisation; TAGE (Seznec/Michaud 2006) and the hashed perceptron (Tarjan/Skadron 2005) are the answers that won",
		Run:   runExtShootout,
	})
}

// shootoutEntry is one contender at the matched ~24-32 Kbit budget.
// Budgets cannot be made exactly equal across such different
// encodings (2-bit counters vs tagged 13-bit entries vs 8-bit
// weights); each column header carries the exact bit count so the
// comparison is honest.
type shootoutEntry struct {
	label string
	spec  string
}

func shootoutEntries() []shootoutEntry {
	return []shootoutEntry{
		{"3x4k-gskewed", "gskewed:n=12,k=8,banks=3,ctr=2,policy=partial"},
		{"3x4k-egskew", "egskew:n=12,k=8,ctr=2,policy=partial"},
		{"4x4k-2bcgskew", "2bcgskew:n=12,ks=6,k=14"},
		{"tage-4x512", "tage:n=9,k=20,kmin=4,tables=4,tag=8,ctr=3"},
		{"perceptron-8x512", "perceptron:n=9,k=16,tables=8,theta=44,ctr=8"},
	}
}

// runExtShootout races this paper's skewed organisations against the
// two modern families at matched storage, then decomposes the classic
// budget's aliasing into the three Cs — the conflict component is the
// headroom the tagged and neural organisations go after.
func runExtShootout(ctx *Context) (Renderable, error) {
	entries := shootoutEntries()
	cols := []string{"benchmark"}
	for _, e := range entries {
		bits := predictor.MustParseSpec(e.spec).StorageBits()
		cols = append(cols, fmt.Sprintf("%s (%.1fKb)", e.label, float64(bits)/1024))
	}
	miss := report.NewTable("Miss % at matched storage budgets", cols...)
	specs := make([]predictor.Spec, len(entries))
	for i, e := range entries {
		specs[i] = specOf(e.spec)
	}
	rows, err := compareRows(ctx, "ext-shootout", specs, sim.Options{})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		miss.AddRow(row...)
	}

	// Three-Cs companion: where the classic budget's mispredictions come
	// from. The decomposition is measured on the shared 4k-entry gshare
	// index (n=12, h=8) the skewed contenders are built around; the
	// conflict column is what skewing dilutes, TAGE tags away and the
	// perceptron never pays (weights are summed, not overwritten).
	threec := report.NewTable("Three-Cs decomposition of the 4k-entry shared index (n=12, h=8)",
		"benchmark", "compulsory %", "capacity %", "conflict %", "total aliased %")
	crows, err := mapBenchmarks(ctx, func(name string, branches []trace.Branch) ([]any, error) {
		cl := alias.NewClassifier(indexfn.NewGShare(12, 8))
		ghr := history.NewGlobal(8)
		for _, b := range branches {
			if b.Kind == trace.Conditional {
				cl.Observe(b.PC, ghr.Bits())
			}
			ghr.Shift(b.Taken)
		}
		st := cl.Stats()
		return []any{name,
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

	return (&Bundle{Title: "Modern rivals at ~24-32 Kbit"}).Add(miss).Add(threec), nil
}
