package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"gskew/internal/kernel"
	"gskew/internal/predictor"
	"gskew/internal/sim"
	"gskew/internal/trace"
	"gskew/internal/workload"
)

// The replay workload stands for `predsim -trace` users: one predictor
// over one columnar trace file per operation. Set-up streams two
// benchmarks straight from the generator into columnar files without
// materialising them: nroff (small static footprint) and real_gcc
// (large). One operation is MapFile -> sim.Run with one predictor and
// Segments 1 -> Result.MarshalJSON -> Close, so decode and staging
// weigh as much as the kernel here, and the 64-lane group never runs.
var replaySpecs = []string{"bimodal:n=14", "gshare:n=14,k=12", "gskewed:n=12,k=12", "egskew:n=12,k=12", "2bcgskew:n=12,ks=8,k=16"}

var replayTraces = []struct {
	bench             string
	scale, shortScale float64
}{{"nroff", 0.15, 0.01}, {"real_gcc", 0.2, 0.015}}

type replayFile struct {
	bench          string
	path           string
	records, conds int
	genNS, encNS   int64 // set-up time generating and encoding
}

type replay struct {
	cfg   config
	t     *tally
	dir   string
	files []replayFile
	specs []predictor.Spec
	out   *digestCheck
	first map[string]sim.Result // reference results for the cross-check

	// Per-family time and conditionals of the latest pass.
	famNS    []int64
	famConds []int
}

func newReplay(cfg config, t *tally) (instance, error) {
	r := &replay{cfg: cfg, t: t, out: newDigestCheck("replay", cfg), first: map[string]sim.Result{}}
	for _, text := range replaySpecs {
		sp, err := predictor.ParseSpec(text)
		if err != nil {
			return nil, err
		}
		r.specs = append(r.specs, sp)
	}
	dir, err := os.MkdirTemp(cfg.dir, "replay")
	if err != nil {
		return nil, err
	}
	r.dir = dir
	for _, rt := range replayTraces {
		scale := rt.scale
		if cfg.short {
			scale = rt.shortScale
		}
		f, err := writeTraceFile(dir, rt.bench, workload.Config{Scale: scale, SeedOffset: cfg.seed})
		if err != nil {
			r.close()
			return nil, err
		}
		r.files = append(r.files, f)
	}
	return r, nil
}

// writeTraceFile streams a benchmark through workload.New and Take into
// a columnar trace file, timing generation and encoding separately.
func writeTraceFile(dir, bench string, c workload.Config) (replayFile, error) {
	rf := replayFile{bench: bench}
	spec, err := workload.ByName(bench)
	if err != nil {
		return rf, err
	}
	g, err := workload.New(spec, c)
	if err != nil {
		return rf, err
	}
	rf.conds = g.Length()
	src := workload.NewTake(g, g.Length())
	f, err := os.CreateTemp(dir, bench+"-*.trc")
	if err != nil {
		return rf, err
	}
	rf.path = f.Name()
	w, err := trace.NewColumnarWriter(f)
	if err != nil {
		f.Close()
		return rf, err
	}
	buf := make([]trace.Branch, trace.ColumnarBlockSize)
	for {
		t0 := time.Now()
		n, rerr := trace.ReadBatch(src, buf)
		t1 := time.Now()
		for i := 0; i < n; i++ {
			if err := w.Write(buf[i]); err != nil {
				f.Close()
				return rf, err
			}
		}
		rf.records += n
		rf.genNS += t1.Sub(t0).Nanoseconds()
		rf.encNS += time.Since(t1).Nanoseconds()
		if errors.Is(rerr, io.EOF) {
			break
		}
		if rerr != nil {
			f.Close()
			return rf, rerr
		}
	}
	t0 := time.Now()
	err = w.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	rf.encNS += time.Since(t0).Nanoseconds()
	return rf, err
}

// op is one replay: the output is the canonical Result JSON.
func (r *replay) op(f replayFile, p predictor.Predictor, parent openSpan) (sim.Result, []byte, error) {
	ms := parent.child("trace.map")
	mp, err := trace.MapFile(f.path)
	ms.end(0)
	if err != nil {
		return sim.Result{}, nil, err
	}
	rs := parent.child("sim.run")
	res, err := sim.Run(mp, p, sim.Options{Segments: 1})
	rs.end(int64(res.Conditionals))
	if err != nil {
		mp.Close()
		return res, nil, err
	}
	js := parent.child("result.marshal")
	out, err := res.MarshalJSON()
	js.end(int64(len(out)))
	cs := parent.child("trace.close")
	if cerr := mp.Close(); err == nil {
		err = cerr
	}
	cs.end(0)
	return res, out, err
}

// pass replays every file through every predictor and returns the
// conditional branches it simulated.
func (r *replay) pass(root openSpan) float64 {
	work := 0.0
	r.famNS = make([]int64, len(r.specs))
	r.famConds = make([]int, len(r.specs))
	for _, f := range r.files {
		for i, spec := range r.specs {
			r.t.attempt(1)
			start := time.Now()
			sp := root.child("replay.op")
			p, err := spec.New()
			var res sim.Result
			var out []byte
			if err == nil {
				res, out, err = r.op(f, p, sp)
			}
			sp.end(int64(res.Conditionals))
			took := time.Since(start)
			work += float64(res.Conditionals)
			r.famNS[i] += took.Nanoseconds()
			r.famConds[i] += res.Conditionals
			key := f.bench + "/" + spec.String()
			switch {
			case err != nil:
				r.t.fail("replay %s: %v", key, err)
			case res.Conditionals != f.conds:
				r.t.fail("replay %s: %d conditionals, file holds %d", key, res.Conditionals, f.conds)
			case r.out.check(key, sha(out), r.t):
				if _, ok := r.first[key]; !ok {
					r.first[key] = res
				}
			}
		}
	}
	return work
}

func (r *replay) timed() timing {
	tm := timePasses(r.cfg, func() float64 { return r.pass(openSpan{}) })
	r.crossCheck()
	return tm
}

// crossCheck re-simulates every file once through the generic
// Predict/Update path (no compiled kernels) and requires the results
// the timed passes produced.
func (r *replay) crossCheck() {
	for _, f := range r.files {
		preds := make([]predictor.Predictor, len(r.specs))
		for i, spec := range r.specs {
			p, err := spec.New()
			if err != nil {
				r.t.fail("replay cross-check: %v", err)
				return
			}
			preds[i] = p
		}
		mp, err := trace.MapFile(f.path)
		if err != nil {
			r.t.fail("replay cross-check: %v", err)
			return
		}
		res, err := sim.RunMany(mp, preds, sim.Options{NoKernel: true, Segments: 1})
		mp.Close()
		if err != nil {
			r.t.fail("replay cross-check: %v", err)
			return
		}
		for i, spec := range r.specs {
			key := f.bench + "/" + spec.String()
			if want, ok := r.first[key]; ok && res[i] != want {
				r.t.fail("replay %s: generic path gives %v, timed passes gave %v", key, res[i], want)
			}
		}
	}
}

func (r *replay) traced(root openSpan) float64 {
	start := time.Now()
	r.pass(root)
	return time.Since(start).Seconds()
}

func (r *replay) layers(ix *spanIndex, m map[string]float64) {
	var records, conds int
	var genNS, encNS int64
	for _, f := range r.files {
		records += f.records
		conds += f.conds
		genNS += f.genNS
		encNS += f.encNS
	}
	m["workload.generate_ns_per_branch"] = float64(genNS) / float64(records)
	m["trace.encode_ns_per_rec"] = float64(encNS) / float64(records)

	decodeNS, err := r.decodeProbe()
	if err != nil {
		r.t.fail("replay decode probe: %v", err)
	}
	m["trace.decode_ns_per_rec"] = float64(decodeNS) / float64(records)

	kernNS := make([]int64, len(r.specs))
	sliceNS := make([]int64, len(r.specs))
	for _, f := range r.files {
		if err := r.inMemoryProbes(f, kernNS, sliceNS); err != nil {
			r.t.fail("replay probe %s: %v", f.bench, err)
		}
	}
	var stage, replayMean float64
	for i, fam := range familyKeys {
		k := float64(kernNS[i]) / float64(conds)
		s := float64(sliceNS[i]) / float64(conds)
		rp := float64(r.famNS[i]) / float64(r.famConds[i])
		m["kernel.step_ns_per_bp."+fam] = k
		m["sim.slice_ns_per_bp."+fam] = s
		m["sim.replay_ns_per_bp."+fam] = rp
		stage += (s - k) / float64(len(familyKeys))
		replayMean += rp / float64(len(familyKeys))
	}
	m["sim.stage_ns_per_branch"] = stage
	m["replay.decode_share"] = float64(decodeNS) / float64(conds) / replayMean
}

// decodeProbe drains every file through MapFile and NextBatch with no
// simulation, returning the total nanoseconds.
func (r *replay) decodeProbe() (int64, error) {
	buf := make([]trace.Branch, trace.ColumnarBlockSize)
	var total int64
	for _, f := range r.files {
		start := time.Now()
		mp, err := trace.MapFile(f.path)
		if err != nil {
			return 0, err
		}
		for {
			_, err = mp.NextBatch(buf)
			if err != nil {
				break
			}
		}
		mp.Close()
		if !errors.Is(err, io.EOF) {
			return 0, err
		}
		total += time.Since(start).Nanoseconds()
	}
	return total, nil
}

// inMemoryProbes times each predictor on f's trace from memory: the
// compiled kernel alone over blocks staged outside the timer, and
// sim.RunBranches (staging plus kernel) with Segments 1.
func (r *replay) inMemoryProbes(f replayFile, kernNS, sliceNS []int64) error {
	data, err := os.ReadFile(f.path)
	if err != nil {
		return err
	}
	branches, err := trace.DecodeBytes(data)
	if err != nil {
		return err
	}
	for i, spec := range r.specs {
		p, err := spec.New()
		if err != nil {
			return err
		}
		k, ok := kernel.Compile(p, p.HistoryBits())
		if !ok {
			return fmt.Errorf("%s does not compile to a kernel", spec)
		}
		st := newStager(branches, p.HistoryBits())
		for steps := st.next(); len(steps) > 0; steps = st.next() {
			start := time.Now()
			k.StepBatch(steps)
			kernNS[i] += time.Since(start).Nanoseconds()
		}

		if p, err = spec.New(); err != nil {
			return err
		}
		start := time.Now()
		_, err = sim.RunBranches(branches, p, sim.Options{Segments: 1})
		sliceNS[i] += time.Since(start).Nanoseconds()
		if err != nil {
			return err
		}
	}
	return nil
}

// stager stages a trace into kernel steps one block at a time, the way
// the simulator does: the global history register (histBits long)
// shifts on every branch, conditional or not, and each conditional
// records the register value it observed. Probes time the kernel on
// each staged block, so the staging stays outside the timer and the
// block stays cache-resident as it does in the simulator.
type stager struct {
	branches  []trace.Branch
	pos       int
	ghr, mask uint64
	buf       []kernel.Step
}

// stageBlock is the simulator's staging block size.
const stageBlock = 4096

func newStager(branches []trace.Branch, histBits uint) *stager {
	return &stager{branches: branches, mask: uint64(1)<<histBits - 1, buf: make([]kernel.Step, 0, stageBlock)}
}

// next returns the next block of steps, empty at the end of the trace.
func (s *stager) next() []kernel.Step {
	s.buf = s.buf[:0]
	for s.pos < len(s.branches) && len(s.buf) < stageBlock {
		b := s.branches[s.pos]
		s.pos++
		if b.Kind == trace.Conditional {
			s.buf = append(s.buf, kernel.Step{PC: b.PC, Hist: s.ghr, Taken: b.Taken})
			s.ghr <<= 1
			if b.Taken {
				s.ghr |= 1
			}
		} else {
			s.ghr = s.ghr<<1 | 1
		}
		s.ghr &= s.mask
	}
	return s.buf
}

func (r *replay) outputs() *digestCheck { return r.out }

func (r *replay) close() {
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}
