// Command predsim runs one predictor configuration over a benchmark
// workload (or a trace file) and reports the misprediction rate.
//
// -pred accepts either a family name configured by the individual
// flags, or a canonical spec string ("family:key=value,...") that
// fully describes the organisation (see the predictor package docs
// for the grammar):
//
//	predsim -bench groff -pred gshare -entries 16384 -hist 12
//	predsim -bench groff -pred gshare:n=14,k=12,ctr=2
//	predsim -bench gs -pred gskewed:n=12,k=8,banks=3,ctr=2,policy=partial
//	predsim -trace trace.bin -pred assoc-lru -entries 1024 -hist 4
//	predsim -bench verilog -pred unaliased -hist 12 -skip-first-use
//
// Run telemetry is opt-in: -json emits the result as JSON instead of
// text, -intervals N records the warmup/steady-state misprediction
// curve, and -manifest FILE writes a machine-readable run record.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"gskew/internal/cli"
	"gskew/internal/history"
	"gskew/internal/obs"
	"gskew/internal/predictor"
	"gskew/internal/sim"
	"gskew/internal/trace"
	"gskew/internal/workload"
)

func main() { cli.Main("predsim", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("predsim", stderr)
	var (
		benchName = fs.String("bench", "", "workload name ("+joinNames()+") or an algo:... spec (see tracegen -list)")
		traceFile = fs.String("trace", "", "binary trace file, varint or columnar (alternative to -bench)")
		scale     = fs.Float64("scale", 0, "workload scale (default 0.1)")
		seed      = fs.Uint64("seed", 0, "workload seed offset")
		pred      = fs.String("pred", "gshare", "predictor family (bimodal, gshare, gselect, gskewed, egskew, 2bcgskew, agree, bimode, pas, skewed-pas, hybrid, unaliased, assoc-lru) or a spec string like gshare:n=14,k=12,ctr=2")
		entries   = fs.Int("entries", 16384, "table entries (per bank for gskewed/egskew)")
		banks     = fs.Int("banks", 3, "bank count for gskewed")
		hist      = fs.Uint("hist", 8, "global history bits")
		ctrBits   = fs.Uint("counter", 2, "counter width in bits")
		policy    = fs.String("policy", "partial", "gskewed update policy: partial or total")
		skipFirst = fs.Bool("skip-first-use", false, "exclude first-time (address,history) references (ideal-table accounting)")
		segments  = fs.Int("segments", 1, "parallel simulation, bit-identical to serial: N >= 2 splits the trace into N segments simulated concurrently; 0 = auto (several predictors drain cell-parallel, one predictor on a long trace is segmented); 1 = serial")
		top       = fs.Int("top", 0, "also report the top-N mispredicting branch addresses")

		asJSON       = fs.Bool("json", false, "emit the result as JSON (sim.Result serialization) instead of text")
		intervals    = fs.Int("intervals", 0, "record the misprediction curve every N conditional branches (0 = off)")
		intervalsOut = fs.String("intervals-out", "", "write the interval curve as JSON to this file (default stderr)")
		manifestOut  = fs.String("manifest", "", "write a JSON run manifest to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var p predictor.Predictor
	var err error
	if strings.Contains(*pred, ":") {
		// Canonical spec string: the whole organisation in one flag.
		var s predictor.Spec
		if s, err = predictor.ParseSpec(*pred); err == nil {
			p, err = s.New()
		}
	} else {
		p, err = buildPredictor(*pred, *entries, *banks, *hist, *ctrBits, *policy)
	}
	if err != nil {
		return err
	}

	var src trace.Source
	switch {
	case *traceFile != "":
		// Zero-copy mapped reader; sniffs the varint or columnar magic,
		// so either tracegen format works without a flag.
		m, err := trace.MapFile(*traceFile)
		if err != nil {
			return err
		}
		defer m.Close()
		src = m
	case *benchName != "":
		src, err = workload.OpenAny(*benchName, workload.Config{Scale: *scale, SeedOffset: *seed})
		if err != nil {
			return err
		}
	default:
		return cli.Usagef("specify -bench or -trace")
	}

	label := specLabel(p)
	var rec *obs.Recorder
	opts := sim.Options{SkipFirstUse: *skipFirst, Segments: *segments}
	if *intervals > 0 {
		obs.Enable()
		rec = obs.NewRecorder(*intervals, label)
		opts.Recorder = rec
	}

	start := time.Now()
	var res sim.Result
	var topMisses []missEntry
	if *top > 0 {
		res, topMisses, err = runWithTopMisses(src, p, *top)
	} else {
		res, err = sim.Run(src, p, opts)
	}
	took := time.Since(start)
	if err != nil {
		return err
	}

	if rec != nil {
		series := rec.Series()
		if *intervalsOut != "" {
			f, err := os.Create(*intervalsOut)
			if err != nil {
				return err
			}
			err = obs.WriteSeriesJSON(f, series)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			fmt.Fprintf(stderr, "[interval curve -> %s]\n", *intervalsOut)
		} else if err := obs.WriteSeriesJSON(stderr, series); err != nil {
			return err
		}
	}
	if *manifestOut != "" {
		m := obs.NewManifest("predsim", args)
		m.SetParam("bench", *benchName)
		m.SetParam("trace", *traceFile)
		m.SetParam("seed", *seed)
		cellID := *benchName
		if cellID == "" {
			cellID = *traceFile
		}
		m.AddCell(obs.Cell{
			ID:           cellID,
			Predictors:   []string{label},
			Conditionals: res.Conditionals,
			WallMS:       float64(took.Nanoseconds()) / float64(time.Millisecond),
			Result:       []sim.Result{res},
		})
		if err := m.WriteFile(*manifestOut); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "[manifest -> %s]\n", *manifestOut)
	}

	if *asJSON {
		doc := struct {
			Predictor   string     `json:"predictor"`
			StorageBits uint64     `json:"storage_bits"`
			Result      sim.Result `json:"result"`
		}{label, uint64(p.StorageBits()), res}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}

	fmt.Fprintf(stdout, "predictor:      %v\n", p)
	fmt.Fprintf(stdout, "storage bits:   %d (%.1f KiB)\n", p.StorageBits(), float64(p.StorageBits())/8192)
	fmt.Fprintf(stdout, "conditionals:   %d\n", res.Conditionals)
	fmt.Fprintf(stdout, "unconditionals: %d\n", res.Unconditionals)
	if res.FirstUses > 0 {
		fmt.Fprintf(stdout, "first uses:     %d (excluded)\n", res.FirstUses)
	}
	fmt.Fprintf(stdout, "mispredicts:    %d\n", res.Mispredicts)
	fmt.Fprintf(stdout, "miss rate:      %.3f %%\n", res.MissPercent())
	if len(topMisses) > 0 {
		fmt.Fprintf(stdout, "\ntop mispredicting branches:\n")
		fmt.Fprintf(stdout, "%-12s %10s %10s %9s\n", "pc(word)", "executed", "misses", "missrate")
		for _, m := range topMisses {
			fmt.Fprintf(stdout, "%#-12x %10d %10d %8.2f%%\n",
				m.pc, m.execs, m.misses, 100*float64(m.misses)/float64(m.execs))
		}
	}
	return nil
}

// missEntry is one row of the -top report.
type missEntry struct {
	pc            uint64
	execs, misses int
}

// runWithTopMisses replicates the sim runner's accounting while
// tallying per-branch misses (the runner itself stays allocation-free;
// this diagnostic path pays for a map).
func runWithTopMisses(src trace.Source, p predictor.Predictor, n int) (sim.Result, []missEntry, error) {
	type tally struct{ execs, misses int }
	perPC := make(map[uint64]*tally)
	ghr := history.NewGlobal(p.HistoryBits())
	var res sim.Result
	for {
		b, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return res, nil, err
		}
		switch b.Kind {
		case trace.Conditional:
			res.Conditionals++
			t := perPC[b.PC]
			if t == nil {
				t = &tally{}
				perPC[b.PC] = t
			}
			t.execs++
			if p.Predict(b.PC, ghr.Bits()) != b.Taken {
				res.Mispredicts++
				t.misses++
			}
			p.Update(b.PC, ghr.Bits(), b.Taken)
			ghr.Shift(b.Taken)
		case trace.Unconditional:
			res.Unconditionals++
			ghr.Shift(true)
		}
	}
	entries := make([]missEntry, 0, len(perPC))
	for pc, t := range perPC {
		if t.misses > 0 {
			entries = append(entries, missEntry{pc: pc, execs: t.execs, misses: t.misses})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].misses != entries[j].misses {
			return entries[i].misses > entries[j].misses
		}
		return entries[i].pc < entries[j].pc
	})
	if len(entries) > n {
		entries = entries[:n]
	}
	return res, entries, nil
}

// buildPredictor constructs the requested organisation. entries is
// rounded to the next power of two (tables are power-of-two indexed).
func buildPredictor(kind string, entries, banks int, hist, ctrBits uint, policy string) (predictor.Predictor, error) {
	n := uint(0)
	for 1<<n < entries {
		n++
	}
	var pol predictor.UpdatePolicy
	switch policy {
	case "partial":
		pol = predictor.PartialUpdate
	case "total":
		pol = predictor.TotalUpdate
	default:
		return nil, cli.Usagef("unknown policy %q", policy)
	}
	switch kind {
	case "bimodal":
		return predictor.MustSpec(predictor.Spec{Family: "bimodal", N: n, Ctr: ctrBits}), nil
	case "gshare":
		return predictor.MustSpec(predictor.Spec{Family: "gshare", N: n, Hist: hist, Ctr: ctrBits}), nil
	case "gselect":
		return predictor.MustSpec(predictor.Spec{Family: "gselect", N: n, Hist: hist, Ctr: ctrBits}), nil
	case "gskewed":
		return predictor.NewGSkewed(predictor.Config{
			Banks: banks, BankBits: n, HistoryBits: hist,
			CounterBits: ctrBits, Policy: pol,
		})
	case "egskew":
		return predictor.NewGSkewed(predictor.Config{
			Banks: 3, BankBits: n, HistoryBits: hist,
			CounterBits: ctrBits, Policy: pol, Enhanced: true,
		})
	case "2bcgskew":
		short := hist / 2
		return (predictor.Spec{Family: "2bcgskew", N: n, HistShort: short, Hist: hist}).New()
	case "agree":
		return (predictor.Spec{Family: "agree", N: n, Hist: hist, Bias: min(n, 12), Ctr: ctrBits}).New()
	case "bimode":
		return (predictor.Spec{Family: "bimode", N: n, Hist: hist, Choice: min(n, 12), Ctr: ctrBits}).New()
	case "pas":
		local := hist
		if local > n {
			local = n
		}
		return (predictor.Spec{Family: "pas", BHT: min(n, 10), Local: local, N: n, Ctr: ctrBits}).New()
	case "skewed-pas":
		local := hist
		return (predictor.Spec{Family: "skewed-pas", BHT: min(n, 10), Local: local, N: n, Ctr: ctrBits, Policy: pol}).New()
	case "hybrid":
		return predictor.NewHybrid(
			predictor.MustSpec(predictor.Spec{Family: "bimodal", N: n, Ctr: ctrBits}),
			predictor.MustSpec(predictor.Spec{Family: "gshare", N: n, Hist: hist, Ctr: ctrBits}),
			min(n, 12))
	case "unaliased":
		return predictor.NewUnaliased(hist, ctrBits), nil
	case "assoc-lru":
		return predictor.NewAssocLRU(entries, hist, ctrBits), nil
	default:
		return nil, cli.Usagef("unknown predictor %q", kind)
	}
}

// specLabel names a predictor for telemetry and JSON output: its
// canonical Spec string when it has one, its String form otherwise.
func specLabel(p predictor.Predictor) string {
	if sp, ok := p.(predictor.Speccer); ok {
		return sp.Spec().String()
	}
	return fmt.Sprintf("%v", p)
}

func joinNames() string {
	out := ""
	for i, n := range workload.Names() {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}
