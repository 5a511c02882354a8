// Command calibrate reports the dynamic composition of a synthetic
// program's branch stream and the per-behaviour-class misprediction of
// an ideal (unaliased) predictor. It exists to keep the workload
// generator honest against the paper's Table 2 targets: run it after
// touching the generator and check that the dynamic mix is dominated
// by predictable branches.
//
// Usage: calibrate [-sites 2000] [-events 300000] [-hist 12] [-seed 1]
package main

import (
	"fmt"
	"io"
	"sort"

	"gskew/internal/cfg"
	"gskew/internal/cli"
	"gskew/internal/history"

	"gskew/internal/predictor"
	"gskew/internal/trace"
)

// classify names a site's behaviour class. Generated programs hold
// their behaviours by pointer, which classify like the values.
func classify(b cfg.Behavior) string {
	switch v := b.(type) {
	case *cfg.Biased:
		return classify(*v)
	case *cfg.Correlated:
		return classify(*v)
	case *cfg.Alternating:
		return classify(*v)
	case cfg.Biased:
		switch {
		case v.P >= 0.95 || v.P <= 0.05:
			return "strong-biased"
		case v.P >= 0.75 || v.P <= 0.25:
			return "weak-biased"
		default:
			return "random"
		}
	case cfg.Correlated:
		return "correlated"
	case cfg.Alternating:
		return "alternating"
	default:
		return fmt.Sprintf("%T", b)
	}
}

func main() { cli.Main("calibrate", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("calibrate", stderr)
	var (
		sites  = fs.Int("sites", 2000, "static conditional sites")
		events = fs.Int("events", 300000, "conditional branches to simulate")
		hist   = fs.Uint("hist", 12, "history bits for the unaliased predictor")
		seed   = fs.Uint64("seed", 1, "generator seed")
		trips  = fs.Float64("trips", 12, "mean loop trips")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sites <= 0 || *events <= 0 {
		return cli.Usagef("-sites and -events must be positive")
	}

	prog, err := cfg.Generate(cfg.GenConfig{
		Procs:          4 + *sites/64,
		StaticBranches: *sites,
		MeanTrips:      *trips,
	}, *seed)
	if err != nil {
		return err
	}

	// Tag every site PC with its class; loop backedges are the sites
	// attached to Loop nodes, which we identify by walking the tree.
	class := make(map[uint64]string, prog.NumSites())
	for _, s := range prog.Sites() {
		class[s.PC] = classify(s.Behavior)
	}
	markLoops(prog, class)

	w := cfg.NewWalker(prog, *seed+1)
	u := predictor.NewUnaliased(*hist, 2)
	ghr := history.NewGlobal(*hist)

	type agg struct{ events, misses int }
	perClass := make(map[string]*agg)
	total := agg{}
	cond := 0
	for cond < *events {
		b, _ := w.Next()
		if b.Kind != trace.Conditional {
			ghr.Shift(b.Taken)
			continue
		}
		cond++
		h := ghr.Bits()
		c := class[b.PC]
		a := perClass[c]
		if a == nil {
			a = &agg{}
			perClass[c] = a
		}
		a.events++
		total.events++
		if u.Seen(b.PC, h) && u.Predict(b.PC, h) != b.Taken {
			a.misses++
			total.misses++
		}
		u.Update(b.PC, h, b.Taken)
		ghr.Shift(b.Taken)
	}

	names := make([]string, 0, len(perClass))
	for n := range perClass {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-14s %10s %8s %9s %12s\n", "class", "events", "share", "missrate", "contribution")
	for _, n := range names {
		a := perClass[n]
		share := float64(a.events) / float64(total.events)
		miss := float64(a.misses) / float64(a.events)
		fmt.Fprintf(stdout, "%-14s %10d %7.1f%% %8.2f%% %11.2f%%\n",
			n, a.events, 100*share, 100*miss, 100*float64(a.misses)/float64(total.events))
	}
	fmt.Fprintf(stdout, "%-14s %10d %7.1f%% %8.2f%%\n", "TOTAL", total.events, 100.0,
		100*float64(total.misses)/float64(total.events))
	return nil
}

// markLoops overrides the class of loop-backedge sites.
func markLoops(p *cfg.Program, class map[uint64]string) {
	var walk func(seq []cfg.Node)
	walk = func(seq []cfg.Node) {
		for _, n := range seq {
			switch n := n.(type) {
			case *cfg.If:
				walk(n.Then)
				walk(n.Else)
			case *cfg.Loop:
				class[n.Site.PC] = "loop-backedge"
				walk(n.Body)
			}
		}
	}
	for _, proc := range p.Procs {
		walk(proc.Body)
	}
}
