package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"gskew/internal/api"
	"gskew/internal/cli"
	"gskew/internal/client"
	"gskew/internal/server"
	"gskew/internal/store"
)

// The sweep subcommand drives a zipfian request mix against one
// predserved server and reports latency quantiles and cache-hit
// curves. The cell universe is -cells distinct store keys built from
// one cheap spec by varying Options.FlushEvery (options are part of
// the content address, so each variant is its own cell); a zipfian
// draw over that universe gives the hot/cold skew a shared cache
// feeds on. Cells are revisited across -passes passes, so the hit
// rate must climb as the store warms. Every response body is checked
// against the first body seen for its cell — byte identity under load
// is the same invariant the serve smoke asserts with cmp.

// sweepReport is the BENCH_serve.json schema.
type sweepReport struct {
	Config    sweepConfig `json:"config"`
	ColdP50US int64       `json:"cold_p50_us"`
	CachedP50 int64       `json:"cached_p50_us"`
	Passes    []passStats `json:"passes"`
	Identical bool        `json:"bodies_identical"`
	TotalHits int         `json:"total_hits"`
	TotalMiss int         `json:"total_misses"`
	ElapsedMS int64       `json:"elapsed_ms"`
	Target    string      `json:"target"`
}

type sweepConfig struct {
	Cells       int     `json:"cells"`
	Passes      int     `json:"passes"`
	Requests    int     `json:"requests_per_pass"`
	Concurrency int     `json:"concurrency"`
	ZipfS       float64 `json:"zipf_s"`
	Seed        int64   `json:"seed"`
	Spec        string  `json:"spec"`
	Bench       string  `json:"bench"`
	Scale       float64 `json:"scale"`
}

type passStats struct {
	Pass     int     `json:"pass"`
	Requests int     `json:"requests"`
	Hits     int     `json:"hits"`
	Misses   int     `json:"misses"`
	HitRate  float64 `json:"hit_rate"`
	P50US    int64   `json:"p50_us"`
	P99US    int64   `json:"p99_us"`
	P999US   int64   `json:"p999_us"`
}

// sample is one request's outcome.
type sample struct {
	cell    int
	latency time.Duration
	stats   client.CacheStats
	body    string
	err     error
}

func runSweep(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("predload sweep", stderr)
	target := fs.String("target", "", "predserved base URL (default: boot one standalone server in-process)")
	cells := fs.Int("cells", 27, "distinct store cells in the universe")
	passes := fs.Int("passes", 3, "zipfian passes over the universe")
	requests := fs.Int("requests", 0, "requests per pass (default 3x cells)")
	concurrency := fs.Int("concurrency", 4, "in-flight requests")
	zipfS := fs.Float64("zipf-s", 1.2, "zipf exponent (>1; larger = hotter head)")
	seed := fs.Int64("seed", 1, "zipf sequence seed")
	spec := fs.String("spec", "gshare:n=8,k=6", "predictor spec every cell shares")
	bench := fs.String("bench", "verilog", "built-in benchmark workload")
	scale := fs.Float64("scale", 0.002, "workload scale factor")
	out := fs.String("out", "", "write the JSON report here (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return cli.Usagef("unexpected arguments: %v", fs.Args())
	}
	if *cells < 1 || *passes < 1 || *concurrency < 1 {
		return cli.Usagef("-cells, -passes and -concurrency must be positive")
	}
	if *zipfS <= 1 {
		return cli.Usagef("-zipf-s must be > 1")
	}
	if *requests == 0 {
		*requests = 3 * *cells
	}

	url := *target
	if url == "" {
		var stop func()
		var err error
		url, stop, err = bootServer()
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(stderr, "booted an in-process server: %s\n", url)
	}

	cfg := sweepConfig{
		Cells: *cells, Passes: *passes, Requests: *requests,
		Concurrency: *concurrency, ZipfS: *zipfS, Seed: *seed,
		Spec: *spec, Bench: *bench, Scale: *scale,
	}
	report, err := sweep(client.New(url), cfg, stderr)
	if err != nil {
		return err
	}
	report.Target = url
	if *out == "" {
		return printJSON(stdout, report)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := printJSON(f, report); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s\n", *out)
	return nil
}

// cellRequest builds the SimulateRequest addressing one cell. The
// FlushEvery offset keeps flushes from ever firing on the scaled
// trace — the cells differ only in content address, so the universe
// is cheap to fill but exercises the full store path.
func cellRequest(cfg sweepConfig, cell int) *api.SimulateRequest {
	return &api.SimulateRequest{
		Specs:   []string{cfg.Spec},
		Bench:   cfg.Bench,
		Scale:   cfg.Scale,
		Options: store.Options{FlushEvery: flushBase + cell},
	}
}

// sweep runs the full multi-pass load and assembles the report.
func sweep(c *client.Client, cfg sweepConfig, stderr io.Writer) (*sweepReport, error) {
	zr := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(zr, cfg.ZipfS, 1, uint64(cfg.Cells-1))

	report := &sweepReport{Config: cfg, Identical: true}
	var coldLat, warmLat []time.Duration
	bodies := make(map[int]string, cfg.Cells)
	start := time.Now()

	for pass := 1; pass <= cfg.Passes; pass++ {
		// Draw the pass's cell sequence up front so the zipf stream is
		// deterministic regardless of worker interleaving.
		seq := make([]int, cfg.Requests)
		for i := range seq {
			seq[i] = int(zipf.Uint64())
		}
		samples, err := runPass(c, cfg, seq)
		if err != nil {
			return nil, err
		}

		ps := passStats{Pass: pass, Requests: len(samples)}
		var lats []time.Duration
		for _, s := range samples {
			ps.Hits += s.stats.Hits
			ps.Misses += s.stats.Misses
			lats = append(lats, s.latency)
			if s.stats.Misses > 0 {
				coldLat = append(coldLat, s.latency)
			} else {
				warmLat = append(warmLat, s.latency)
			}
			if prev, ok := bodies[s.cell]; ok {
				if prev != s.body {
					report.Identical = false
				}
			} else {
				bodies[s.cell] = s.body
			}
		}
		if total := ps.Hits + ps.Misses; total > 0 {
			ps.HitRate = float64(ps.Hits) / float64(total)
		}
		ps.P50US = quantileUS(lats, 0.50)
		ps.P99US = quantileUS(lats, 0.99)
		ps.P999US = quantileUS(lats, 0.999)
		report.Passes = append(report.Passes, ps)
		report.TotalHits += ps.Hits
		report.TotalMiss += ps.Misses
		fmt.Fprintf(stderr, "pass %d: %d req, hit rate %.3f, p50 %dus p99 %dus\n",
			pass, ps.Requests, ps.HitRate, ps.P50US, ps.P99US)
	}

	report.ColdP50US = quantileUS(coldLat, 0.50)
	report.CachedP50 = quantileUS(warmLat, 0.50)
	report.ElapsedMS = time.Since(start).Milliseconds()
	if !report.Identical {
		return nil, fmt.Errorf("byte-identity violated: same cell returned different bodies under load")
	}
	return report, nil
}

// runPass issues one pass's requests across the workers.
func runPass(c *client.Client, cfg sweepConfig, seq []int) ([]sample, error) {
	type job struct{ idx, cell int }
	jobs := make(chan job)
	samples := make([]sample, len(seq))
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				req := cellRequest(cfg, j.cell)
				t0 := time.Now()
				body, stats, err := c.SimulateRaw(context.Background(), req)
				samples[j.idx] = sample{
					cell:    j.cell,
					latency: time.Since(t0),
					stats:   stats,
					body:    string(body),
					err:     err,
				}
			}
		}()
	}
	for i, cell := range seq {
		jobs <- job{idx: i, cell: cell}
	}
	close(jobs)
	wg.Wait()
	for _, s := range samples {
		if s.err != nil {
			return nil, fmt.Errorf("cell %d: %w", s.cell, s.err)
		}
	}
	return samples, nil
}

// flushBase keeps the per-cell FlushEvery far above any scaled trace
// length, so the option varies the content address without ever
// triggering a flush.
const flushBase = 1 << 30

// quantileUS returns the q-th latency quantile in microseconds.
func quantileUS(lats []time.Duration, q float64) int64 {
	if len(lats) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(lats))
	copy(sorted, lats)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx].Microseconds()
}

// bootServer starts one in-process predserved server with the default
// memory-only store and trace pool on a loopback port, for
// self-contained benchmarking without a running daemon. Returns its
// base URL and a shutdown func.
func bootServer() (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: server.New(server.Config{}).Handler()}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() { hs.Close() }, nil
}
