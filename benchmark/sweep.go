package main

import (
	"bytes"
	"fmt"
	"time"

	"gskew/internal/algotrace"
	"gskew/internal/kernel"
	"gskew/internal/obs"
	"gskew/internal/predictor"
	"gskew/internal/sim"
	"gskew/internal/trace"
	"gskew/internal/workload"
)

// The sweep workload is the paper's figure shape: a 128-spec
// mixed-geometry grid over one in-memory trace per operation, with
// library defaults so automatic segmentation and bitsliced groups are
// live. Per-branch staging is spread over 128 cells, so decode and
// staging nearly vanish and the predictor kernels (scalar or the
// 64-lane Group64) do the work. Two traces: a synthetic real_gcc
// realisation and a recorded KMP string search (Nicaud, Pivoteau and
// Vialette's real-algorithm streams).
const (
	sweepGCCScale      = 0.02
	sweepGCCShortScale = 0.005
	sweepKMPN          = 80000
	sweepKMPShortN     = 16000
)

// sweepSpecs is the grid: 64 single-table gshare specs (n 10..17 by k
// 0,2..14) and 64 three-bank gskewed specs (n 9..12 by k 0,2..30,
// alternating partial and total update).
func sweepSpecs() []predictor.Spec {
	var specs []predictor.Spec
	for n := uint(10); n <= 17; n++ {
		for k := uint(0); k <= 14; k += 2 {
			specs = append(specs, predictor.Spec{Family: "gshare", N: n, Hist: k}.Normalize())
		}
	}
	for n := uint(9); n <= 12; n++ {
		for k := uint(0); k <= 30; k += 2 {
			pol := predictor.PartialUpdate
			if len(specs)%2 == 1 {
				pol = predictor.TotalUpdate
			}
			specs = append(specs, predictor.Spec{Family: "gskewed", N: n, Hist: k, Policy: pol}.Normalize())
		}
	}
	return specs
}

type sweepTrace struct {
	name     string
	branches []trace.Branch
	conds    int
}

type sweep struct {
	cfg    config
	t      *tally
	traces []sweepTrace
	specs  []predictor.Spec
	out    *digestCheck
	first  map[string][]sim.Result

	recordNS int64 // set-up time recording the KMP trace
	recordN  int
}

func newSweep(cfg config, t *tally) (instance, error) {
	s := &sweep{cfg: cfg, t: t, specs: sweepSpecs(), out: newDigestCheck("sweep", cfg), first: map[string][]sim.Result{}}
	scale, n := sweepGCCScale, sweepKMPN
	if cfg.short {
		scale, n = sweepGCCShortScale, sweepKMPShortN
	}
	gcc, err := workload.MaterializeAny("real_gcc", workload.Config{Scale: scale, SeedOffset: cfg.seed})
	if err != nil {
		return nil, err
	}
	spec, err := algotrace.ParseSpec(fmt.Sprintf("algo:kmp,n=%d,m=8,sigma=2,seed=%d", n, cfg.seed))
	if err != nil {
		return nil, err
	}
	start := time.Now()
	kmp, err := algotrace.Record(spec)
	s.recordNS, s.recordN = time.Since(start).Nanoseconds(), len(kmp)
	if err != nil {
		return nil, err
	}
	for _, tr := range []sweepTrace{{name: "real_gcc", branches: gcc}, {name: spec.String(), branches: kmp}} {
		for _, b := range tr.branches {
			if b.Kind == trace.Conditional {
				tr.conds++
			}
		}
		s.traces = append(s.traces, tr)
	}
	return s, nil
}

// newPreds builds fresh predictors for the grid.
func (s *sweep) newPreds() ([]predictor.Predictor, error) {
	preds := make([]predictor.Predictor, len(s.specs))
	for i, sp := range s.specs {
		p, err := sp.New()
		if err != nil {
			return nil, err
		}
		preds[i] = p
	}
	return preds, nil
}

// resultsDigest is the SHA-256 of the grid's canonical Result JSON,
// one line per spec in grid order.
func resultsDigest(res []sim.Result) (string, error) {
	var buf bytes.Buffer
	for _, r := range res {
		js, err := r.MarshalJSON()
		if err != nil {
			return "", err
		}
		buf.Write(js)
		buf.WriteByte('\n')
	}
	return sha(buf.Bytes()), nil
}

// pass sweeps the grid over every trace and returns the
// branch-predictions it simulated.
func (s *sweep) pass(root openSpan) float64 {
	work := 0.0
	for _, tr := range s.traces {
		s.t.attempt(1)
		op := root.child("sweep.op")
		ns := op.child("predictor.new")
		preds, err := s.newPreds()
		ns.end(int64(len(s.specs)))
		var res []sim.Result
		if err == nil {
			rs := op.child("sim.run_many")
			res, err = sim.RunManyBranches(tr.branches, preds, sim.Options{})
			rs.end(int64(tr.conds * len(s.specs)))
		}
		var digest string
		if err == nil {
			digest, err = resultsDigest(res)
		}
		op.end(1)
		work += float64(tr.conds * len(s.specs))
		switch {
		case err != nil:
			s.t.fail("sweep %s: %v", tr.name, err)
		case s.out.check(tr.name, digest, s.t):
			if _, ok := s.first[tr.name]; !ok {
				s.first[tr.name] = res
			}
		}
	}
	return work
}

func (s *sweep) timed() timing {
	tm := timePasses(s.cfg, func() float64 { return s.pass(openSpan{}) })
	s.crossCheck()
	return tm
}

// crossCheck re-runs the grid serially on per-cell scalar kernels (no
// segments, no bitsliced groups) and requires the timed passes'
// results.
func (s *sweep) crossCheck() {
	for _, tr := range s.traces {
		preds, err := s.newPreds()
		if err != nil {
			s.t.fail("sweep cross-check: %v", err)
			return
		}
		res, err := sim.RunManyBranches(tr.branches, preds, sim.Options{Segments: 1, NoBitslice: true})
		if err != nil {
			s.t.fail("sweep cross-check %s: %v", tr.name, err)
			continue
		}
		want := s.first[tr.name]
		for i := range want {
			if res[i] != want[i] {
				s.t.fail("sweep %s %s: scalar path gives %v, timed passes gave %v", tr.name, s.specs[i], res[i], want[i])
				break
			}
		}
	}
}

func (s *sweep) traced(root openSpan) float64 {
	start := time.Now()
	s.pass(root)
	return time.Since(start).Seconds()
}

func (s *sweep) layers(ix *spanIndex, m map[string]float64) {
	m["algotrace.record_ns_per_branch"] = float64(s.recordNS) / float64(s.recordN)
	var newNS, newN int64
	for _, sp := range ix.named("predictor.new") {
		newNS += sp.dur()
		newN += sp.Count
	}
	m["predictor.new_us"] = float64(newNS) / 1e3 / float64(max(newN, 1))

	if err := s.groupProbe(m); err != nil {
		s.t.fail("sweep group probe: %v", err)
	}
	if !obs.Enabled() {
		obs.Enable()
		defer obs.Disable()
	}
	bp := 0
	for _, tr := range s.traces {
		bp += tr.conds * len(s.specs)
	}
	replayed0 := obsValue("sim.seg.replayed_steps")
	m["sim.sweep_ns_per_bp"] = s.runProbe(sim.Options{}) / float64(bp)
	m["sim.seg_replay_share"] = float64(obsValue("sim.seg.replayed_steps")-replayed0) / float64(bp)
	lanes0 := obsValue("sim.bitslice.lanes")
	m["sim.sweep_serial_ns_per_bp"] = s.runProbe(sim.Options{Segments: 1}) / float64(bp)
	m["sim.bitslice_lane_share"] = float64(obsValue("sim.bitslice.lanes")-lanes0) / float64(len(s.specs)*len(s.traces))
	m["sim.sweep_scalar_ns_per_bp"] = s.runProbe(sim.Options{Segments: 1, NoBitslice: true}) / float64(bp)
}

// runProbe times RunManyBranches of the grid over every trace with
// opts, predictor construction excluded, in nanoseconds.
func (s *sweep) runProbe(opts sim.Options) float64 {
	var ns int64
	for _, tr := range s.traces {
		preds, err := s.newPreds()
		if err != nil {
			s.t.fail("sweep probe: %v", err)
			return 0
		}
		start := time.Now()
		res, err := sim.RunManyBranches(tr.branches, preds, opts)
		ns += time.Since(start).Nanoseconds()
		if err != nil {
			s.t.fail("sweep probe %s: %v", tr.name, err)
		} else if d, err := resultsDigest(res); err != nil {
			s.t.fail("sweep probe %s: %v", tr.name, err)
		} else {
			s.out.check(tr.name, d, s.t)
		}
	}
	return float64(ns)
}

// groupProbe times the grid's own lanes on 64-lane bitsliced groups
// (kernel.CompileGroup64 + StepBatch64), grouped by kernel.GroupKind64
// the way the simulator groups them, over blocks staged outside the
// timer. The single-table and skewed groups report separately.
func (s *sweep) groupProbe(m map[string]float64) error {
	ns := map[string]int64{}
	laneSteps := map[string]int64{}
	for _, tr := range s.traces {
		preds, err := s.newPreds()
		if err != nil {
			return err
		}
		byKind := map[int][]int{}
		for i, p := range preds {
			if kind, ok := kernel.GroupKind64(p); ok {
				byKind[kind] = append(byKind[kind], i)
			}
		}
		for _, idx := range byKind {
			for len(idx) > 0 {
				n := min(len(idx), kernel.MaxLanes)
				lanes := make([]predictor.Predictor, n)
				hists := make([]uint, n)
				var maxK uint
				for j, ci := range idx[:n] {
					lanes[j], hists[j] = preds[ci], preds[ci].HistoryBits()
					maxK = max(maxK, hists[j])
				}
				name := "skew"
				if s.specs[idx[0]].Family == "gshare" {
					name = "single"
				}
				idx = idx[n:]
				g, ok := kernel.CompileGroup64(lanes, hists)
				if !ok {
					return fmt.Errorf("%s lanes do not form a group", name)
				}
				mis := make([]int, n)
				st := newStager(tr.branches, maxK)
				for steps := st.next(); len(steps) > 0; steps = st.next() {
					start := time.Now()
					g.StepBatch64(steps, mis)
					ns[name] += time.Since(start).Nanoseconds()
					laneSteps[name] += int64(n) * int64(len(steps))
				}
			}
		}
	}
	for _, name := range []string{"single", "skew"} {
		m["kernel.group64_ns_per_lane_step."+name] = float64(ns[name]) / float64(max(laneSteps[name], 1))
	}
	return nil
}

func (s *sweep) outputs() *digestCheck { return s.out }

func (s *sweep) close() {}

// obsValue reads a counter or gauge of the default obs registry.
func obsValue(name string) int64 {
	var v int64
	obs.Default().Each(func(m obs.Metric) {
		if m.MetricName() != name {
			return
		}
		switch c := m.(type) {
		case *obs.Counter:
			v = c.Value()
		case *obs.Gauge:
			v = c.Value()
		}
	})
	return v
}
