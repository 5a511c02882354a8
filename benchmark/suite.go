package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"gskew/internal/experiments"
	"gskew/internal/obs"
)

// The suite workload is `cmd/experiments -all`: every registered
// experiment through experiments.RunAll on a fresh Context per pass
// (so each pass pays workload materialisation, as a CLI run does),
// then every result rendered as text. It is the only workload that
// reaches the alias/model analyses, report rendering, the experiments
// scheduler and the stepper/generic predictor arms (TAGE, perceptron).
// The scale keeps a pass near three seconds on two cores, so a timed
// phase holds several passes.
const (
	suiteScale      = 0.01
	suiteShortScale = 0.002
)

type suite struct {
	cfg   config
	t     *tally
	scale float64
	exps  []experiments.Experiment
	out   *digestCheck

	branchPreds int // summed over the traced pass's simulation cells
}

// newSuite warms the process the way a first experiment run does: it
// materialises the six benchmark workloads and simulates table1 at the
// pass scale in a Context it then drops, so every timed pass still
// pays its own materialisation. The warm-up runs on one scheduler slot:
// on the shared host a two-thread set-up this short doubled whenever
// the second CPU was busy elsewhere.
func newSuite(cfg config, t *tally) (instance, error) {
	s := &suite{cfg: cfg, t: t, scale: suiteScale, exps: experiments.All(), out: newDigestCheck("suite", cfg)}
	if cfg.short {
		s.scale = suiteShortScale
	}
	warm, err := experiments.ByID("table1")
	if err != nil {
		return nil, err
	}
	exps := []experiments.Experiment{warm}
	ctx := s.context(nil)
	ctx.Sched = experiments.NewSched(1)
	results, err := experiments.RunAll(ctx, exps)
	if err != nil {
		return nil, err
	}
	return s, render(io.Discard, exps, results)
}

// context is a fresh experiments Context as `cmd/experiments -all
// -jobs nproc -segments 1` builds it.
func (s *suite) context(o *experiments.RunObs) *experiments.Context {
	return &experiments.Context{Scale: s.scale, SeedOffset: s.cfg.seed,
		Sched: experiments.NewSched(nproc()), Segments: 1, Obs: o}
}

// render writes results in cmd/experiments' text format.
func render(w io.Writer, exps []experiments.Experiment, results []experiments.Renderable) error {
	for i, e := range exps {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "== %s: %s ==\n", e.ID, e.Title)
		if err := results[i].WriteText(w); err != nil {
			return err
		}
	}
	return nil
}

// pass returns the number of experiments it ran.
func (s *suite) pass() float64 {
	s.t.attempt(1)
	results, err := experiments.RunAll(s.context(nil), s.exps)
	var buf bytes.Buffer
	if err == nil {
		err = render(&buf, s.exps, results)
	}
	if err != nil {
		s.t.fail("suite pass: %v", err)
	} else {
		s.out.check("render", sha(buf.Bytes()), s.t)
	}
	return float64(len(s.exps))
}

func (s *suite) timed() timing { return timePasses(s.cfg, s.pass) }

// traced runs the suite with its phases separated: the six workloads
// materialised up front, then the experiments one after another (each
// still fanning its cells out over the scheduler), then rendering.
// Simulation cells are timed by the RunObs progress hook and counted
// by its interval recorders.
func (s *suite) traced(root openSpan) float64 {
	s.t.attempt(1)
	start := time.Now()
	cells := &cellLog{}
	o := &experiments.RunObs{Intervals: 1 << 30, Progress: obs.NewProgress(cells, 0)}
	ctx := s.context(o)

	mat := root.child("suite.materialize")
	names := ctx.BenchmarkNames()
	err := ctx.Sched.Map(len(names), func(i int) error {
		_, err := ctx.Trace(names[i])
		return err
	})
	mat.end(int64(len(names)))

	results := make([]experiments.Renderable, len(s.exps))
	for i, e := range s.exps {
		if err != nil {
			break
		}
		sp := root.child("suite.exp." + e.ID)
		var r []experiments.Renderable
		r, err = experiments.RunAll(ctx, []experiments.Experiment{e})
		for _, c := range cells.take() {
			sp.addChild("sim.cell", c.start, c.end, 1)
		}
		sp.end(1)
		if err == nil {
			results[i] = r[0]
		}
	}
	var buf bytes.Buffer
	if err == nil {
		rs := root.child("suite.render")
		err = render(&buf, s.exps, results)
		rs.end(int64(buf.Len()))
	}
	if err != nil {
		s.t.fail("suite traced pass: %v", err)
		return time.Since(start).Seconds()
	}
	s.out.check("render", sha(buf.Bytes()), s.t)
	s.branchPreds = 0
	for _, series := range o.Series() {
		conds, _ := series.Totals()
		s.branchPreds += conds
	}
	return time.Since(start).Seconds()
}

func (s *suite) layers(ix *spanIndex, m map[string]float64) {
	for _, e := range s.exps {
		m["suite.exp."+e.ID+"_s"] = ix.totalSeconds("suite.exp." + e.ID)
	}
	var analysisNS int64
	for _, e := range s.exps {
		for _, sp := range ix.named("suite.exp." + e.ID) {
			analysisNS += ix.self(sp)
		}
	}
	busy := ix.totalSeconds("sim.cell")
	m["suite.materialize_s"] = ix.totalSeconds("suite.materialize")
	m["suite.sim_busy_s"] = busy
	m["suite.branch_preds"] = float64(s.branchPreds)
	m["suite.analysis_s"] = float64(analysisNS) / 1e9
	m["suite.sim_ns_per_bp"] = busy * 1e9 / float64(max(s.branchPreds, 1))
	m["suite.render_s"] = ix.totalSeconds("suite.render")
}

func (s *suite) outputs() *digestCheck { return s.out }

func (s *suite) close() {}

// cellLog receives obs.Progress lines ("[n] <cell> <took> elapsed
// <t>"), one per finished simulation cell, and turns each into a cell
// interval ending when the line arrived. Progress rounds took to the
// millisecond below one second and to 100ms above it.
type cellLog struct {
	mu    sync.Mutex
	cells []cellTime
}

type cellTime struct{ start, end time.Time }

func (l *cellLog) Write(p []byte) (int, error) {
	end := time.Now()
	f := strings.Fields(string(p))
	if len(f) >= 5 {
		if took, err := time.ParseDuration(f[len(f)-3]); err == nil {
			l.mu.Lock()
			l.cells = append(l.cells, cellTime{end.Add(-took), end})
			l.mu.Unlock()
		}
	}
	return len(p), nil
}

// take returns and clears the cells logged so far.
func (l *cellLog) take() []cellTime {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.cells
	l.cells = nil
	return c
}
