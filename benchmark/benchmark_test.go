package main

import (
	"bufio"
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// shortConfig sizes a run for the test: small inputs, one pass, and a
// serve phase of half a second.
func shortConfig(t *testing.T, seed uint64) config {
	return config{seed: seed, seconds: 1, short: true, dir: t.TempDir()}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// printed parses the "workload metric value unit" lines of a report.
func printed(t *testing.T, out []byte) []metricDef {
	var defs []metricDef
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] == "#" {
			continue
		}
		if len(f) != 4 {
			t.Fatalf("malformed report line %q", sc.Text())
		}
		defs = append(defs, metricDef{Name: f[1], Unit: f[3]})
	}
	return defs
}

// sameMetrics requires got to list exactly want's names and units, in
// order, once per workload.
func sameMetrics(t *testing.T, got []metricDef, want []metricDef, workloads int) {
	t.Helper()
	if len(got) != len(want)*workloads {
		t.Fatalf("printed %d metrics, want %d per workload x %d", len(got), len(want), workloads)
	}
	for i, g := range got {
		w := want[i%len(want)]
		if g.Name != w.Name || g.Unit != w.Unit {
			t.Errorf("metric %d printed as %s [%s], BENCHMARK.json has %s [%s]", i, g.Name, g.Unit, w.Name, w.Unit)
		}
		if !metricName.MatchString(g.Name) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", g.Name)
		}
	}
}

func readRepoSpec(t *testing.T) benchSpec {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	spec := readRepoSpec(t)
	var e2e []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.metricDef)
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the program, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: program %+v, BENCHMARK.json %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer(), spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestWorkloadsShort runs every workload untraced, and the suite
// traced (which visits every workload's traced pass), at the short
// size: no operation may fail, and the report must print exactly the
// metrics BENCHMARK.json names.
func TestWorkloadsShort(t *testing.T) {
	var outcomes []outcome
	for _, wl := range workloads {
		o, _, err := measure(wl, shortConfig(t, 1), false)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if o.Failed != 0 || o.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", wl.name, o.Failed, o.Attempted, o.Errors)
		}
		o.Metrics["peak_rss_mb"] = 1 // measured by the parent from the child's rusage
		outcomes = append(outcomes, o)
	}
	var buf bytes.Buffer
	if _, err := report(&buf, outcomes, endToEnd); err != nil {
		t.Fatal(err)
	}
	sameMetrics(t, printed(t, buf.Bytes()), endToEnd, len(workloads))

	o, spans, err := measure(workloads[0], shortConfig(t, 1), true)
	if err != nil {
		t.Fatal(err)
	}
	if o.Failed != 0 {
		t.Errorf("traced: %d of %d operations failed: %v", o.Failed, o.Attempted, o.Errors)
	}
	buf.Reset()
	if _, err := report(&buf, []outcome{o}, perLayer()); err != nil {
		t.Fatal(err)
	}
	sameMetrics(t, printed(t, buf.Bytes()), perLayer(), 1)

	if len(spans) != len(workloads) {
		t.Fatalf("traced run kept spans of %d workloads, want %d", len(spans), len(workloads))
	}
	for _, ws := range spans {
		tr := &tracer{spans: ws.spans}
		ix := tr.index()
		for _, s := range ix.spans {
			if ix.self(s) < 0 {
				t.Errorf("%s: span %s has negative self time", ws.workload, s.Name)
			}
		}
		roots := ix.named(ws.workload + ".pass")
		if len(roots) != 1 {
			t.Fatalf("%s: %d pass spans, want 1", ws.workload, len(roots))
		}
		if c := ix.coverage(roots[0]); c < 0.9 {
			t.Errorf("%s: child spans cover %.1f%% of the pass, want >= 90%%", ws.workload, 100*c)
		}
	}
}

// TestPlantedDigestCaught pins a wrong digest for one replay output and
// requires the pass that produces it to count a failure.
func TestPlantedDigestCaught(t *testing.T) {
	cfg := shortConfig(t, 1)
	key := expectedKey("replay", cfg)
	pinned := expected[key]
	if len(pinned) == 0 {
		t.Fatalf("no pinned replay digests for %s", key)
	}
	planted := digests{}
	for k, v := range pinned {
		planted[k] = v
	}
	for k := range planted {
		planted[k] = strings.Repeat("0", 64)
		break
	}
	expected[key] = planted
	defer func() { expected[key] = pinned }()

	tl := &tally{}
	inst, err := newReplay(cfg, tl)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	inst.traced(openSpan{})
	if tl.failed != 1 {
		t.Fatalf("planted digest: %d failures, want 1 (%v)", tl.failed, tl.errs)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q := quartiles(xs); q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", q)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	slower := []float64{130, 131, 129, 130, 132, 128, 130, 131, 129, 130}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	noisy := []float64{60, 140, 70, 130, 100, 65, 135, 100, 62, 138}
	for _, c := range []struct {
		head   []float64
		better string
		want   string
	}{
		{base, "lower", "same"},
		{slower, "lower", "worse"},
		{faster, "lower", "better"},
		{faster, "higher", "worse"},
		{noisy, "lower", "unresolved"},
	} {
		if v, _, _ := verdict(base, c.head, c.better, 0.1); v != c.want {
			t.Errorf("verdict(%v, %s) = %s, want %s", c.head, c.better, v, c.want)
		}
	}
}
