// Command benchmark is the repository's end-to-end benchmark. It runs
// four workloads, each standing for one way users meet the simulator:
//
//	suite   cmd/experiments -all: every table and figure, rendered
//	replay  predsim -trace: one predictor over a columnar trace file
//	sweep   a 128-spec mixed-geometry grid over one in-memory trace
//	serve   /v1 clients against an in-process server
//
// Run it from the repository root:
//
//	bash benchmark/run.sh [-workload suite,replay,sweep,serve] [-seed N]
//	    [-seconds S] [-trace 0|1] [-spans spans.jsonl] [-out runs.jsonl]
//	bash benchmark/run.sh -compare base.jsonl head.jsonl
//
// Each workload runs in its own child process (the binary re-executes
// itself with -child), so its peak resident set is its own. The child
// sets the workload up several times (the median is setup_s, never
// part of a timed figure), then times passes for -seconds and checks
// every output; a wrong answer counts as a failed operation. Lines
// "workload metric value unit" go to standard output, followed by one
// JSON object {"correct", "attempted", "failed", "metrics"} as the last
// line. With -trace 1 the run adds traced passes and reports the
// per-layer metrics instead of the end-to-end ones. The exit code is
// non-zero when any operation failed. README.md defines every metric.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// A run sets its workload up at least minSetups times and goes on
// until minSetupSeconds have passed (at most maxSetups times); setup_s
// is the median, so neither one slow set-up nor the timer's grain on a
// set-up of a few milliseconds moves it.
const (
	minSetups       = 5
	maxSetups       = 25
	minSetupSeconds = 1.0
)

// config is what one workload run needs.
type config struct {
	seed    uint64
	seconds float64 // length of the timed phase
	short   bool    // small inputs, for the package test
	dir     string  // scratch directory for trace files and pools
	speed   *hostSpeed
}

// minPasses is the fewest timed passes a batch workload takes, however
// short -seconds is.
func (c config) minPasses() int {
	if c.short {
		return 1
	}
	return 3
}

// nproc bounds every source of parallelism the benchmark adds: worker
// goroutines, HTTP connections and scheduler slots.
func nproc() int { return runtime.GOMAXPROCS(0) }

// tally counts attempted and failed operations. A failed operation is
// an error or an output that does not match its check.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
	errs              []string
}

// maxErrors bounds the failure messages kept for the report.
const maxErrors = 8

func (t *tally) attempt(n int) {
	t.mu.Lock()
	t.attempted += n
	t.mu.Unlock()
}

// fail records one failed operation.
func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if len(t.errs) < maxErrors {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// setup builds the workload's inputs; it is never timed into an
	// operation. The instance counts its operations in t and must be
	// closed.
	setup func(cfg config, t *tally) (instance, error)
}

// instance is one set-up workload.
type instance interface {
	// timed runs the untraced timed phase for cfg.seconds.
	timed() timing
	// traced runs one traced pass under root and returns the figure
	// comparable with timed's baseline.
	traced(root openSpan) float64
	// layers adds the workload's per-layer metrics: those derived from
	// the traced pass's spans and those of its own layer probes.
	layers(ix *spanIndex, m map[string]float64)
	close()
}

var workloads = []workloadDef{
	{"suite", newSuite},
	{"replay", newReplay},
	{"sweep", newSweep},
	{"serve", newServe},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// timing is what an untraced timed phase measured.
type timing struct {
	metrics  map[string]float64 // end-to-end metrics but setup_s and peak_rss_mb
	baseline float64            // what a traced pass is compared with for trace_overhead_pct
	note     string             // medians and tails, printed as a comment
}

// outcome is what a child reports to the parent.
type outcome struct {
	Workload  string             `json:"workload"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Note      string             `json:"note,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

func main() {
	var (
		names    = flag.String("workload", "suite,replay,sweep,serve", "comma-separated workloads to run")
		seed     = flag.Uint64("seed", 1, "input seed (seeds 2 and 3 are held out for checking claims)")
		seconds  = flag.Float64("seconds", 12, "length of each workload's timed phase in seconds")
		traced   = flag.Int("trace", 0, "1: take one traced pass per workload and report the per-layer metrics")
		spansOut = flag.String("spans", "", "with -trace 1, append each workload's spans to this JSON-lines file")
		out      = flag.String("out", "", "append this run's metrics as one JSON line to this file (input of -compare)")
		workdir  = flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for trace files and pools")
		compare  = flag.Bool("compare", false, "compare run files: -compare base.jsonl head.jsonl [head2.jsonl ...]")
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark definition holding the metric bounds (for -compare)")
		writeExp = flag.String("write-expected", "", "regenerate the pinned output digests for seeds 1-3 into this file")
		child    = flag.String("child", "", "internal: run one workload in this process")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = runCompare(os.Stdout, *specPath, flag.Args())
	case *writeExp != "":
		err = writeExpected(*writeExp, *workdir)
	case *child != "":
		err = runChild(os.Stdout, *child, *traced == 1, *spansOut,
			config{seed: *seed, seconds: *seconds, dir: *workdir})
	default:
		err = runParent(os.Stdout, strings.Split(*names, ","), *seed, *seconds, *traced == 1, *spansOut, *out, *workdir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errFailed reports that the run completed but some operations failed;
// the result has already been printed.
var errFailed = errors.New("operations failed")

// runParent runs each workload in a child process and prints the
// report.
func runParent(w io.Writer, names []string, seed uint64, seconds float64, traced bool, spans, out, workdir string) error {
	for _, n := range names {
		if _, ok := workloadByName(n); !ok {
			return fmt.Errorf("unknown workload %q", n)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var outcomes []outcome
	for _, name := range names {
		args := []string{"-child", name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-workdir", workdir}
		if traced {
			args = append(args, "-trace", "1", "-spans", spans)
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("workload %s: %w", name, err)
		}
		var o outcome
		if err := json.Unmarshal(lastLine(stdout), &o); err != nil {
			return fmt.Errorf("workload %s: reading child result: %w", name, err)
		}
		if !traced {
			// Linux reports Maxrss in KiB.
			if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
				o.Metrics["peak_rss_mb"] = float64(ru.Maxrss) / 1024
			}
		}
		outcomes = append(outcomes, o)
	}
	defs := endToEnd
	if traced {
		defs = perLayer()
	}
	res, err := report(w, outcomes, defs)
	if err != nil {
		return err
	}
	if out != "" {
		if err := appendRun(out, seed, traced, outcomes, defs); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if !res.Correct {
		return errFailed
	}
	return nil
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints "workload metric value unit" for every metric in defs
// and builds the result line. With several workloads the result's
// metric names are prefixed "workload.".
func report(w io.Writer, outcomes []outcome, defs []metricDef) (result, error) {
	res := result{Metrics: map[string]metricValue{}}
	for _, o := range outcomes {
		fmt.Fprintf(w, "# %s: %d operations, %d failed\n", o.Workload, o.Attempted, o.Failed)
		if o.Note != "" {
			fmt.Fprintf(w, "# %s: %s\n", o.Workload, o.Note)
		}
		for _, e := range o.Errors {
			fmt.Fprintf(w, "# %s: failure: %s\n", o.Workload, e)
		}
		res.Attempted += o.Attempted
		res.Failed += o.Failed
		for _, d := range defs {
			v, ok := o.Metrics[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return res, fmt.Errorf("workload %s did not measure %s", o.Workload, d.Name)
			}
			fmt.Fprintf(w, "%s %s %s %s\n", o.Workload, d.Name, strconv.FormatFloat(v, 'g', -1, 64), d.Unit)
			key := d.Name
			if len(outcomes) > 1 {
				key = o.Workload + "." + d.Name
			}
			res.Metrics[key] = metricValue{v, d.Unit}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// runChild runs one workload in this process and prints its outcome
// as JSON.
func runChild(w io.Writer, name string, traced bool, spansPath string, cfg config) error {
	wl, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	cfg.dir = filepath.Join(cfg.dir, strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.dir)
	o, spans, err := measure(wl, cfg, traced)
	if err != nil {
		return err
	}
	if traced && spansPath != "" {
		for _, s := range spans {
			if err := writeSpans(spansPath, s.workload, s.spans); err != nil {
				return err
			}
		}
	}
	line, err := json.Marshal(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

// workloadSpans are the spans of one workload's traced pass.
type workloadSpans struct {
	workload string
	spans    []span
}

// measure runs one workload: untraced, its end-to-end metrics; traced,
// the per-layer metrics of every workload plus this one's tracing
// overhead.
func measure(wl workloadDef, cfg config, traced bool) (outcome, []workloadSpans, error) {
	t := &tally{}
	o := outcome{Workload: wl.name, Metrics: map[string]float64{}}
	cfg.speed = &hostSpeed{}
	inst, setupS, err := setupMedian(wl, cfg, t)
	if err != nil {
		return o, nil, err
	}
	tm := inst.timed()
	o.Note = tm.note
	var spans []workloadSpans
	if !traced {
		for k, v := range tm.metrics {
			o.Metrics[k] = v
		}
		o.Metrics["setup_s"] = setupS
		f := cfg.speed.factor()
		o.Note += fmt.Sprintf("; %v; unscaled setup_s %.4g s, best_ms %.4g ms, cpu_ms %.4g ms, throughput %.4g/s",
			cfg.speed, setupS, tm.metrics["best_ms"], tm.metrics["cpu_ms"], tm.metrics["throughput"])
		o.Metrics["setup_s"] /= f
		o.Metrics["best_ms"] /= f
		o.Metrics["cpu_ms"] /= f
		o.Metrics["throughput"] *= f
		inst.close()
	} else {
		// The asked-for workload's traced pass runs first, straight after
		// its untraced passes, so trace_overhead_pct compares like with
		// like; the other workloads follow for their layer figures.
		figure, ws := tracePass(wl.name, inst, o.Metrics)
		if tm.baseline > 0 {
			o.Metrics["trace_overhead_pct"] = (figure/tm.baseline - 1) * 100
		}
		spans = append(spans, ws)
		for _, other := range workloads {
			if other.name == wl.name {
				continue
			}
			ocfg := cfg
			ocfg.seconds = math.Min(cfg.seconds, tracedOtherSeconds)
			cur, err := other.setup(ocfg, t)
			if err != nil {
				return o, nil, fmt.Errorf("%s: %w", other.name, err)
			}
			_, ws := tracePass(other.name, cur, o.Metrics)
			spans = append(spans, ws)
		}
	}
	o.Attempted, o.Failed, o.Errors = t.attempted, t.failed, t.errs
	return o, spans, nil
}

// tracePass takes one traced pass of inst, adds its per-layer metrics
// to m, closes inst and returns the pass's figure and spans.
func tracePass(name string, inst instance, m map[string]float64) (float64, workloadSpans) {
	runtime.GC()
	tr := newTracer()
	root := tr.begin(name + ".pass")
	figure := inst.traced(root)
	root.end(1)
	inst.layers(tr.index(), m)
	inst.close()
	return figure, workloadSpans{name, tr.snapshot()}
}

// tracedOtherSeconds caps -seconds for the workloads a traced run
// visits only for their layer figures; it sizes serve's traced phase.
const tracedOtherSeconds = 6

// setupMedian sets the workload up repeatedly (see minSetups), keeping
// the last instance, and returns the median set-up time in seconds.
func setupMedian(wl workloadDef, cfg config, t *tally) (instance, float64, error) {
	var times []float64
	var total float64
	var inst instance
	budget := minSetupSeconds
	if cfg.short {
		budget = 0
	}
	for len(times) < minSetups || (total < budget && len(times) < maxSetups) {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		cfg.speed.sample()
		start := time.Now()
		var err error
		inst, err = wl.setup(cfg, t)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		took := time.Since(start).Seconds()
		times = append(times, took)
		total += took
	}
	return inst, median(times), nil
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// timePasses runs pass until cfg.seconds of passes have elapsed (and
// at least cfg.minPasses ran); pass returns the work units it
// completed, the same every pass. A garbage collection before each
// pass, outside its timing, keeps one pass's garbage out of the next
// one's time and makes the heap peak the same from pass to pass; the
// host's speed is sampled there too. The traced pass is compared with
// the median pass.
func timePasses(cfg config, pass func() float64) timing {
	var walls, cpus []float64
	var work, elapsed float64
	for len(walls) < cfg.minPasses() || elapsed < cfg.seconds {
		runtime.GC()
		cfg.speed.sample()
		c0, p0 := cpuSeconds(), time.Now()
		work = pass()
		wall := time.Since(p0).Seconds()
		cpus = append(cpus, cpuSeconds()-c0)
		walls = append(walls, wall)
		elapsed += wall
	}
	best := percentile(walls, 0)
	return timing{
		metrics: map[string]float64{
			"best_ms":    1000 * best,
			"cpu_ms":     1000 * percentile(cpus, 0),
			"throughput": work / best,
		},
		baseline: median(walls),
		note: fmt.Sprintf("%d passes; pass wall median %.1f ms, p90 %.1f ms, max %.1f ms; CPU median %.1f ms",
			len(walls), 1000*median(walls), 1000*percentile(walls, 0.9), 1000*percentile(walls, 1), 1000*median(cpus)),
	}
}

// appendRun appends one run's metrics as a JSON line to path.
func appendRun(path string, seed uint64, traced bool, outcomes []outcome, defs []metricDef) error {
	type wlRun struct {
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	run := struct {
		Seed      uint64           `json:"seed"`
		Trace     bool             `json:"trace"`
		Workloads map[string]wlRun `json:"workloads"`
	}{seed, traced, map[string]wlRun{}}
	for _, o := range outcomes {
		r := wlRun{o.Attempted, o.Failed, map[string]metricValue{}}
		for _, d := range defs {
			r.Metrics[d.Name] = metricValue{o.Metrics[d.Name], d.Unit}
		}
		run.Workloads[o.Workload] = r
	}
	return appendJSONLine(path, run)
}

// appendJSONLine appends v as one JSON line to path.
func appendJSONLine(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
