package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gskew/internal/algotrace"
	"gskew/internal/api"
	"gskew/internal/client"
	"gskew/internal/experiments"
	"gskew/internal/obs"
	"gskew/internal/predictor"
	"gskew/internal/server"
	"gskew/internal/sim"
	"gskew/internal/store"
	"gskew/internal/trace"
	"gskew/internal/tracepool"
	"gskew/internal/workload"
)

// The serve workload drives an in-process server.New on 127.0.0.1 from
// nproc client workers in an open loop: requests arrive on a seeded
// Poisson schedule and each is timed from its scheduled send, so a
// stall delays every request queued behind it. Two phases run back to
// back: an open loop at the nominal rate, timed per request, and a
// closed loop of the same mix, nproc connections sending back to back,
// whose completion rate is the server's capacity. The mix:
//
//	read    80%  an 8-spec window of a 64-spec grid over one of six
//	             benchmarks x {seed, seed+1}, zipf-chosen; every read
//	             cell is warmed in set-up, so reads are store hits
//	cold    10%  a read shape with a never-used flush_every >= 1<<30,
//	             a guaranteed store miss that never flushes
//	ingest   5%  POST /v1/traces of a distinct pre-encoded recorded
//	             algorithm trace of about 25k branches
//	byhash   5%  a sweep by trace_sha256 of a trace ingested in set-up,
//	             with a fresh flush_every
//
// Store hits and misses are fixed by construction, so a store or HTTP
// gain and a simulation gain show in different operations.

// Pinned load: capacityRPS is the closed-loop capacity (the serve
// throughput metric) measured at this commit on the 2-core reference
// host, and the open loop runs at a fifth of it. It is never
// recomputed at run time, so a slower server faces the same offered
// load. At 40% the shared host's slow minutes (capacity down to about
// 1150/s) tipped the open loop into queueing and tripled its latency;
// at 20% a read rarely finds both connections busy.
const (
	capacityRPS = 1600
	rateRPS     = 0.2 * capacityRPS
)

const (
	serveScale      = 0.005
	serveShortScale = 0.002
	serveZipfS      = 1.1
	serveWindow     = 8     // specs per read request
	ingestKMPN      = 5000  // ~25k recorded branches per ingested trace
	byhashKMPN      = 15000 // ~75k branches: a byhash sweep costs what a cold one does
	byhashTraces    = 8
	checkEvery      = 10 // re-check every 10th cold and byhash response
	coldFlushBase   = 1 << 30
	closedBlocks    = 8 // closed-loop completions are timed in this many blocks
	nominalWindows  = 6 // the open loop's latency is taken per window
)

// Request kinds, indexing serveOps.
const (
	opRead = iota
	opCold
	opIngest
	opByhash
)

// mixGroup is the mix, exactly: every run of 20 requests is these kinds
// in a seeded shuffled order, so each closed-loop block and open-loop
// window carries the same work and a block's rate does not depend on
// how many cold sweeps chance put in it.
var mixGroup = []int{
	opRead, opRead, opRead, opRead, opRead, opRead, opRead, opRead,
	opRead, opRead, opRead, opRead, opRead, opRead, opRead, opRead,
	opCold, opCold, opIngest, opByhash,
}

// serveGrid is the 64-spec read grid: 32 gshare (n 10..13 by k
// 0,2..14) and 32 gskewed (n 9..12 by k 0,4..28).
func serveGrid() []string {
	var grid []string
	for n := 10; n <= 13; n++ {
		for k := 0; k <= 14; k += 2 {
			grid = append(grid, predictor.Spec{Family: "gshare", N: uint(n), Hist: uint(k)}.Normalize().String())
		}
	}
	for n := 9; n <= 12; n++ {
		for k := 0; k <= 28; k += 4 {
			grid = append(grid, predictor.Spec{Family: "gskewed", N: uint(n), Hist: uint(k)}.Normalize().String())
		}
	}
	return grid
}

// readTarget is one read request shape.
type readTarget struct {
	bench  string
	seed   uint64
	window int
}

// serveReq is one scheduled request.
type serveReq struct {
	at     time.Duration // send time from the phase start
	kind   int
	target int // read target (read, cold), payload (ingest) or pooled trace (byhash)
	flush  int // flush_every of cold and byhash requests
}

// pooledTrace is a recorded trace ready for ingest.
type pooledTrace struct {
	hash     string
	records  int
	encoded  []byte
	branches []trace.Branch // kept for byhash traces only
}

type serve struct {
	cfg   config
	t     *tally
	dir   string
	scale float64
	grid  []string

	pool *tracepool.Pool
	srv  *server.Server
	hs   *http.Server
	tr   *http.Transport
	cl   *client.Client
	done chan error

	targets  []readTarget
	warm     [][]byte // set-up response body of each read target
	payloads []pooledTrace
	byhash   []pooledTrace
	nextLoad int // next unused payload
	flushes  int // flush_every values handed out

	nominal, closed []serveReq
	lastLag         []float64 // send lateness of the traced phase

	sink       atomic.Pointer[tracer] // set while a traced phase runs
	queueGauge *obs.Gauge
	queueMax   atomic.Int64
	hits       atomic.Int64 // X-Cache cells of simulate requests in the traced phase
	misses     atomic.Int64

	mu      sync.Mutex
	pending []pendingCheck
}

// pendingCheck is a cold or byhash response kept for re-checking
// against a direct simulation after the timed phases.
type pendingCheck struct {
	req  serveReq
	body []byte
}

func newServe(cfg config, t *tally) (instance, error) {
	s := &serve{cfg: cfg, t: t, scale: serveScale, grid: serveGrid(), done: make(chan error, 1)}
	if cfg.short {
		s.scale = serveShortScale
	}
	dir, err := os.MkdirTemp(cfg.dir, "serve")
	if err != nil {
		return nil, err
	}
	s.dir = dir
	if err := s.start(); err != nil {
		s.close()
		return nil, err
	}
	if err := s.prepare(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// start brings up the server and the client.
func (s *serve) start() error {
	st, err := store.Open(1<<16, "") // never evicts: reads stay hits
	if err != nil {
		return err
	}
	s.pool, err = tracepool.Open(server.DefaultPoolEntries, filepath.Join(s.dir, "pool"))
	if err != nil {
		return err
	}
	s.srv = server.New(server.Config{Store: st, Sched: experiments.NewSched(nproc()), Pool: s.pool})
	obs.Default().Each(func(m obs.Metric) {
		if g, ok := m.(*obs.Gauge); ok && m.MetricName() == "server.queue_depth" {
			s.queueGauge = g
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs = &http.Server{Handler: http.HandlerFunc(s.serveHTTP)}
	go func() { s.done <- s.hs.Serve(ln) }()
	s.tr = &http.Transport{MaxConnsPerHost: nproc(), MaxIdleConnsPerHost: nproc()}
	s.cl = client.New("http://"+ln.Addr().String(), client.WithRetries(1),
		client.WithHTTPClient(&http.Client{Transport: tagTransport{s.tr}}))
	return nil
}

// prepare warms every read cell, ingests the byhash traces, encodes the
// ingest payloads and draws both phases' requests.
func (s *serve) prepare() error {
	for _, bench := range workload.Names() {
		for _, seed := range []uint64{s.cfg.seed, s.cfg.seed + 1} {
			for w := 0; w < len(s.grid)/serveWindow; w++ {
				s.targets = append(s.targets, readTarget{bench, seed, w})
			}
		}
	}
	s.warm = make([][]byte, len(s.targets))
	err := parallel(len(s.targets), func(i int) error {
		body, _, err := s.cl.SimulateRaw(context.Background(), s.simRequest(serveReq{kind: opRead, target: i}))
		s.warm[i] = body
		return err
	})
	if err != nil {
		return fmt.Errorf("warming read cells: %w", err)
	}

	rng := rand.New(rand.NewSource(int64(s.cfg.seed)))
	phase := s.phase()
	s.nominal = s.schedule(rng, rateRPS, phase)
	// The closed loop sends about a phase's worth of requests at the
	// pinned capacity, each as soon as a connection frees.
	s.closed = s.schedule(rng, capacityRPS, phase)
	for i := range s.closed {
		s.closed[i].at = 0
	}
	if err := s.encodePayloads(ingests(s.nominal) + ingests(s.closed)); err != nil {
		return err
	}
	if s.byhash, err = recordTraces(s.cfg.seed, 1, 0, byhashTraces, byhashKMPN); err != nil {
		return err
	}
	for _, p := range s.byhash {
		resp, err := s.cl.IngestTrace(context.Background(), p.encoded)
		if err != nil {
			return fmt.Errorf("ingesting byhash trace: %w", err)
		}
		if resp.TraceSHA256 != p.hash {
			return fmt.Errorf("ingest returned hash %s, want %s", resp.TraceSHA256, p.hash)
		}
	}
	return nil
}

func ingests(reqs []serveReq) int {
	n := 0
	for _, r := range reqs {
		if r.kind == opIngest {
			n++
		}
	}
	return n
}

// encodePayloads makes sure n more unused ingest payloads exist.
func (s *serve) encodePayloads(n int) error {
	if more := s.nextLoad + n - len(s.payloads); more > 0 {
		p, err := recordTraces(s.cfg.seed, 0, len(s.payloads), more, ingestKMPN)
		if err != nil {
			return err
		}
		for i := range p {
			p[i].branches = nil
		}
		s.payloads = append(s.payloads, p...)
	}
	return nil
}

// recordTraces records n distinct KMP searches over textLen-character
// texts, encoded for ingest: traces first..first+n-1 of set, where set
// 0 are ingest payloads and set 1 the byhash traces.
func recordTraces(seed uint64, set, first, n, textLen int) ([]pooledTrace, error) {
	out := make([]pooledTrace, n)
	for i := range out {
		spec, err := algotrace.ParseSpec(fmt.Sprintf("algo:kmp,n=%d,m=8,sigma=2,seed=%d",
			textLen, seed<<24|uint64(set)<<20|uint64(first+i)))
		if err != nil {
			return nil, err
		}
		branches, err := algotrace.Record(spec)
		if err != nil {
			return nil, err
		}
		enc, err := trace.EncodeColumnar(branches)
		if err != nil {
			return nil, err
		}
		out[i] = pooledTrace{hash: trace.HashBranches(branches), records: len(branches), encoded: enc, branches: branches}
	}
	return out, nil
}

// schedule draws one phase of Poisson arrivals at rate per second.
func (s *serve) schedule(rng *rand.Rand, rate float64, phase time.Duration) []serveReq {
	zipf := rand.NewZipf(rng, serveZipfS, 1, uint64(len(s.targets)-1))
	perm := rng.Perm(len(s.targets)) // which targets are hot differs by seed
	var reqs []serveReq
	var group []int
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= phase {
			return reqs
		}
		if len(group) == 0 {
			group = append(group, mixGroup...)
			rng.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
		}
		r := serveReq{at: at, kind: group[0]}
		group = group[1:]
		switch r.kind {
		case opRead:
			r.target = perm[zipf.Uint64()]
		case opCold:
			r.target = rng.Intn(len(s.targets))
		case opByhash:
			r.target = rng.Intn(byhashTraces)
		}
		reqs = append(reqs, r)
	}
}

// fresh returns a copy of reqs whose cold, byhash and ingest requests
// are new to the server: unused flush_every values and payloads
// (encoded here when set-up made too few). It must run before the
// phase, from one goroutine.
func (s *serve) fresh(reqs []serveReq) ([]serveReq, error) {
	if err := s.encodePayloads(ingests(reqs)); err != nil {
		return nil, err
	}
	out := append([]serveReq(nil), reqs...)
	for i := range out {
		switch out[i].kind {
		case opCold, opByhash:
			s.flushes++
			out[i].flush = coldFlushBase + s.flushes
		case opIngest:
			out[i].target = s.nextLoad
			s.nextLoad++
		}
	}
	return out, nil
}

// simRequest builds the simulate request of a read, cold or byhash
// request.
func (s *serve) simRequest(r serveReq) *api.SimulateRequest {
	if r.kind == opByhash {
		w := r.target % (len(s.grid) / serveWindow)
		return &api.SimulateRequest{Specs: s.grid[w*serveWindow : (w+1)*serveWindow],
			TraceSHA256: s.byhash[r.target].hash, Options: api.Options{FlushEvery: r.flush}}
	}
	tg := s.targets[r.target]
	return &api.SimulateRequest{Specs: s.grid[tg.window*serveWindow : (tg.window+1)*serveWindow],
		Bench: tg.bench, Scale: s.scale, Seed: tg.seed, Options: api.Options{FlushEvery: r.flush}}
}

// phaseResult is one phase's measurements, indexed like its schedule,
// plus marks at every closedBlocks-th of its completions.
type phaseResult struct {
	latMS []float64 // completion minus scheduled send
	lagMS []float64 // actual send minus scheduled send
	marks []blockMark
}

// blockMark is the phase's wall time and the process's CPU time, in
// seconds, when a block of completions finished.
type blockMark struct{ at, cpu float64 }

// blocks returns the closed loop's best block rate (completions per
// second), the least CPU per request of any block, and the median
// block rate. Taking the best block lets a stall of the shared host
// move one block, not the figure.
func (p phaseResult) blocks(n int) (best, cpu, typical float64) {
	sort.Slice(p.marks, func(i, j int) bool { return p.marks[i].at < p.marks[j].at })
	size := float64(blockSize(n))
	var rates []float64
	cpu = math.Inf(1)
	for i := 1; i < len(p.marks); i++ {
		rates = append(rates, size/(p.marks[i].at-p.marks[i-1].at))
		cpu = math.Min(cpu, (p.marks[i].cpu-p.marks[i-1].cpu)/size)
	}
	return percentile(rates, 1), cpu, median(rates)
}

// blockSize is how many completions of an n-request phase make a block:
// whole mix groups.
func blockSize(n int) int { return max(n/closedBlocks/len(mixGroup), 1) * len(mixGroup) }

// bestWindow cuts an open-loop phase into nominalWindows windows by
// scheduled send time and returns the lowest window median latency.
func bestWindow(reqs []serveReq, res phaseResult, phase time.Duration) float64 {
	windows := make([][]float64, nominalWindows)
	for i, r := range reqs {
		w := min(int(r.at*nominalWindows/phase), nominalWindows-1)
		windows[w] = append(windows[w], res.latMS[i])
	}
	best := math.Inf(1)
	for _, lat := range windows {
		if len(lat) > 0 {
			best = math.Min(best, median(lat))
		}
	}
	return best
}

// runPhase sends reqs on schedule from nproc workers. With root set
// (a traced phase) it records the workers' waits and requests as
// spans, and the server middleware records handler spans.
func (s *serve) runPhase(reqs []serveReq, root openSpan) phaseResult {
	res := phaseResult{latMS: make([]float64, len(reqs)), lagMS: make([]float64, len(reqs)),
		marks: []blockMark{{0, cpuSeconds()}}}
	s.t.attempt(len(reqs))
	size := int64(blockSize(len(reqs)))
	var next, done atomic.Int64
	var mu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(reqs[i].at)
				if time.Until(due) > 0 {
					ws := root.child("loadgen.wait")
					sleepUntil(due)
					ws.end(0)
				}
				sent := time.Now()
				rs := root.request("client." + serveOps[reqs[i].kind])
				err := s.do(reqs[i], rs)
				rs.end(1)
				end := time.Now()
				res.latMS[i] = float64(end.Sub(due).Nanoseconds()) / 1e6
				res.lagMS[i] = float64(sent.Sub(due).Nanoseconds()) / 1e6
				if done.Add(1)%size == 0 {
					m := blockMark{end.Sub(start).Seconds(), cpuSeconds()}
					mu.Lock()
					res.marks = append(res.marks, m)
					mu.Unlock()
				}
				if err != nil {
					s.t.fail("serve %s: %v", serveOps[reqs[i].kind], err)
				}
			}
		}()
	}
	wg.Wait()
	return res
}

// sleepUntil blocks the calling thread in nanosleep until t. The Go
// runtime's timers wake sleepers up to a millisecond late on Linux,
// as long as a cached read takes, which would bury the server's
// latency under the load generator's; nanosleep wakes within about
// 60us.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		syscall.Nanosleep(&ts, nil)
	}
}

// do sends one request and checks its response.
func (s *serve) do(r serveReq, sp openSpan) error {
	ctx := context.WithValue(context.Background(), reqTagKey{}, reqTag{serveOps[r.kind], sp.traceID, sp.id})
	if r.kind == opIngest {
		p := s.payloads[r.target]
		resp, err := s.cl.IngestTrace(ctx, p.encoded)
		if err != nil {
			return err
		}
		if resp.TraceSHA256 != p.hash || resp.Branches != p.records {
			return fmt.Errorf("ingest answered %s/%d, want %s/%d", resp.TraceSHA256, resp.Branches, p.hash, p.records)
		}
		return nil
	}
	body, cs, err := s.cl.SimulateRaw(ctx, s.simRequest(r))
	if err != nil {
		return err
	}
	if sp.t != nil {
		s.hits.Add(int64(cs.Hits))
		s.misses.Add(int64(cs.Misses))
	}
	switch r.kind {
	case opRead:
		if cs.Hits != serveWindow {
			return fmt.Errorf("read of target %d missed the store (%+v)", r.target, cs)
		}
		if !bytes.Equal(body, s.warm[r.target]) {
			return fmt.Errorf("read of target %d differs from its warm-up body", r.target)
		}
	default:
		if cs.Misses != serveWindow {
			return fmt.Errorf("%s request hit the store (%+v)", serveOps[r.kind], cs)
		}
		if (r.flush-coldFlushBase)%checkEvery == 0 {
			s.mu.Lock()
			s.pending = append(s.pending, pendingCheck{r, body})
			s.mu.Unlock()
		}
	}
	return nil
}

// recheck compares the kept cold and byhash responses with a direct
// simulation of the same specs over the same trace.
func (s *serve) recheck() {
	s.mu.Lock()
	pending := s.pending
	s.pending = nil
	s.mu.Unlock()
	benches := map[readTarget][]trace.Branch{}
	for _, pc := range pending {
		req := s.simRequest(pc.req)
		var branches []trace.Branch
		if pc.req.kind == opByhash {
			branches = s.byhash[pc.req.target].branches
		} else {
			key := s.targets[pc.req.target]
			key.window = 0
			if benches[key] == nil {
				b, err := workload.MaterializeAny(key.bench, workload.Config{Scale: s.scale, SeedOffset: key.seed})
				if err != nil {
					s.t.fail("serve re-check: %v", err)
					continue
				}
				benches[key] = b
			}
			branches = benches[key]
		}
		if err := checkSweep(pc.body, req, branches); err != nil {
			s.t.fail("serve %s re-check: %v", serveOps[pc.req.kind], err)
		}
	}
}

// newPredictors builds fresh predictors from spec strings.
func newPredictors(specs []string) ([]predictor.Predictor, error) {
	preds := make([]predictor.Predictor, len(specs))
	for i, text := range specs {
		sp, err := predictor.ParseSpec(text)
		if err != nil {
			return nil, err
		}
		if preds[i], err = sp.New(); err != nil {
			return nil, err
		}
	}
	return preds, nil
}

// checkSweep decodes a simulate response and requires every cell to
// equal a direct sim.RunManyBranches of its spec.
func checkSweep(body []byte, req *api.SimulateRequest, branches []trace.Branch) error {
	var resp api.SimulateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if len(resp.Results) != len(req.Specs) {
		return fmt.Errorf("%d cells, want %d", len(resp.Results), len(req.Specs))
	}
	preds, err := newPredictors(req.Specs)
	if err != nil {
		return err
	}
	want, err := sim.RunManyBranches(branches, preds, req.Options.Sim())
	if err != nil {
		return err
	}
	for i, c := range resp.Results {
		if c.Spec != req.Specs[i] || c.Result != want[i] {
			return fmt.Errorf("cell %s: served %v, direct simulation %v", req.Specs[i], c.Result, want[i])
		}
	}
	return nil
}

func (s *serve) timed() timing {
	nomReqs, err := s.fresh(s.nominal)
	if err != nil {
		s.t.fail("serve: %v", err)
		return timing{}
	}
	closedReqs, err := s.fresh(s.closed)
	if err != nil {
		s.t.fail("serve: %v", err)
		return timing{}
	}
	// The host's speed is sampled around the phases, which run without
	// a break.
	sampleHost := func() {
		for i := 0; i < 4; i++ {
			s.cfg.speed.sample()
		}
	}
	runtime.GC()
	sampleHost()
	nom := s.runPhase(nomReqs, openSpan{})
	runtime.GC()
	sampleHost()
	closed := s.runPhase(closedReqs, openSpan{})
	sampleHost()
	s.recheck()
	best, cpu, typical := closed.blocks(len(closedReqs))
	p50 := percentile(nom.latMS, 0.5)
	return timing{
		metrics: map[string]float64{
			"best_ms":    bestWindow(nomReqs, nom, s.phase()),
			"cpu_ms":     1000 * cpu,
			"throughput": best,
		},
		baseline: p50,
		note: fmt.Sprintf("open loop at %.0f/s: %d requests, p50 %.2f ms, p90 %.2f ms, p99 %.2f ms, send lag p99 %.2f ms; closed loop: %d requests, median block %.0f/s",
			rateRPS, len(nomReqs), p50, percentile(nom.latMS, 0.9), percentile(nom.latMS, 0.99),
			percentile(nom.lagMS, 0.99), len(closedReqs), typical),
	}
}

// phase is the length of each phase: half the timed phase.
func (s *serve) phase() time.Duration {
	return time.Duration(s.cfg.seconds / 2 * float64(time.Second))
}

// traced replays the nominal schedule (with fresh cold, byhash and
// ingest requests) with spans on, and returns its median latency.
func (s *serve) traced(root openSpan) float64 {
	ps := root.child("serve.prepare")
	reqs, err := s.fresh(s.nominal)
	ps.end(int64(len(reqs)))
	if err != nil {
		s.t.fail("serve: %v", err)
		return 0
	}
	s.hits.Store(0)
	s.misses.Store(0)
	s.queueMax.Store(0)
	s.sink.Store(root.t)
	res := s.runPhase(reqs, root)
	s.sink.Store(nil)
	rc := root.child("serve.recheck")
	s.recheck()
	rc.end(0)
	s.lastLag = res.lagMS
	return percentile(res.latMS, 0.5)
}

func (s *serve) layers(ix *spanIndex, m map[string]float64) {
	p50 := func(name string) float64 {
		var d []float64
		for _, sp := range ix.named(name) {
			d = append(d, float64(sp.dur())/1e6)
		}
		return median(d)
	}
	for _, op := range serveOps {
		m["client.rtt_ms."+op] = p50("client." + op)
		m["server.handler_ms."+op] = p50("server." + op)
	}
	m["serve.transport_ms"] = m["client.rtt_ms.read"] - m["server.handler_ms.read"]
	m["serve.queue_depth_max"] = float64(s.queueMax.Load())
	if h, mi := s.hits.Load(), s.misses.Load(); h+mi > 0 {
		m["serve.store_hit_ratio"] = float64(h) / float64(h+mi)
	}
	m["loadgen.lag_ms_p99"] = percentile(s.lastLag, 0.99)
	if err := s.probes(m); err != nil {
		s.t.fail("serve probes: %v", err)
	}
}

// probes times the store, the trace pool, trace hashing and one cold
// operation's simulation directly, outside HTTP.
func (s *serve) probes(m map[string]float64) error {
	st := s.srv.Store()
	var keys []store.Key
	for _, body := range s.warm {
		var resp api.SimulateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		for _, c := range resp.Results {
			var k store.Key
			if _, err := hex.Decode(k[:], []byte(c.Key)); err != nil {
				return err
			}
			keys = append(keys, k)
		}
	}
	start := time.Now()
	for _, k := range keys {
		if _, ok := st.Get(k); !ok {
			return fmt.Errorf("warmed cell %s is not stored", k)
		}
	}
	m["store.get_us"] = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(keys))
	start = time.Now()
	for i := range keys {
		e := store.Entry{Schema: store.SchemaVersion, Spec: s.grid[0], TraceHash: sha([]byte(strconv.Itoa(i)))}
		if err := st.Put(e.Key(), e); err != nil {
			return err
		}
	}
	m["store.put_us"] = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(keys))

	// A one-segment pool forces every Get after the next Put to disk.
	pool, err := tracepool.Open(1, filepath.Join(s.dir, "probe-pool"))
	if err != nil {
		return err
	}
	var putNS, getNS, hashNS int64
	records := 0
	for _, p := range s.byhash {
		t0 := time.Now()
		if _, _, err := pool.Put(p.branches); err != nil {
			return err
		}
		putNS += time.Since(t0).Nanoseconds()
		t0 = time.Now()
		if trace.HashBranches(p.branches) != p.hash {
			return errors.New("trace hash changed")
		}
		hashNS += time.Since(t0).Nanoseconds()
		records += len(p.branches)
	}
	for _, p := range s.byhash {
		t0 := time.Now()
		if _, ok := pool.Get(p.hash); !ok {
			return fmt.Errorf("pooled trace %s not found", p.hash)
		}
		getNS += time.Since(t0).Nanoseconds()
	}
	m["tracepool.put_ms"] = float64(putNS) / 1e6 / byhashTraces
	m["tracepool.get_ms"] = float64(getNS) / 1e6 / byhashTraces
	m["trace.hash_ns_per_rec"] = float64(hashNS) / float64(records)

	req := s.simRequest(serveReq{kind: opCold, target: 0, flush: coldFlushBase})
	tg := s.targets[0]
	branches, err := workload.MaterializeAny(tg.bench, workload.Config{Scale: s.scale, SeedOffset: tg.seed})
	if err != nil {
		return err
	}
	var cold []float64
	for i := 0; i < 3; i++ {
		preds, err := newPredictors(req.Specs)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := sim.RunManyBranches(branches, preds, req.Options.Sim()); err != nil {
			return err
		}
		cold = append(cold, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	m["sim.cold_ms"] = median(cold)
	return nil
}

// serveHTTP is the server's handler behind a middleware that, during a
// traced phase, records the handler's span (parented to the client
// request span named in the request headers) and samples the
// simulation queue depth.
func (s *serve) serveHTTP(w http.ResponseWriter, r *http.Request) {
	tr := s.sink.Load()
	if tr == nil {
		s.srv.Handler().ServeHTTP(w, r)
		return
	}
	if s.queueGauge != nil {
		q := s.queueGauge.Value()
		for cur := s.queueMax.Load(); q > cur && !s.queueMax.CompareAndSwap(cur, q); cur = s.queueMax.Load() {
		}
	}
	start := time.Now()
	s.srv.Handler().ServeHTTP(w, r)
	end := time.Now()
	op := r.Header.Get("X-Bench-Op")
	traceID, _ := strconv.ParseUint(r.Header.Get("X-Bench-Trace"), 10, 64)
	parent, _ := strconv.ParseUint(r.Header.Get("X-Bench-Span"), 10, 64)
	if op != "" && parent != 0 {
		tr.record(traceID, tr.newID(), parent, "server."+op, start, end, 1)
	}
}

// reqTag names a request for the server middleware.
type reqTag struct {
	op            string
	traceID, span uint64
}

type reqTagKey struct{}

// tagTransport copies a request's reqTag from its context into headers.
type tagTransport struct{ base http.RoundTripper }

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	tag, ok := r.Context().Value(reqTagKey{}).(reqTag)
	if ok && tag.span != 0 {
		r = r.Clone(r.Context())
		r.Header.Set("X-Bench-Op", tag.op)
		r.Header.Set("X-Bench-Trace", strconv.FormatUint(tag.traceID, 10))
		r.Header.Set("X-Bench-Span", strconv.FormatUint(tag.span, 10))
	}
	return t.base.RoundTrip(r)
}

func (s *serve) close() {
	if s.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		s.hs.Shutdown(ctx)
		cancel()
		if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.t.fail("serve: server stopped with %v", err)
		}
		s.tr.CloseIdleConnections()
	}
	os.RemoveAll(s.dir)
}

// parallel runs fn(0..n-1) on nproc goroutines and returns the first
// error.
func parallel(n int, fn func(i int) error) error {
	var next atomic.Int64
	errs := make(chan error, nproc())
	for w := 0; w < nproc(); w++ {
		go func() {
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					errs <- nil
					return
				}
				if err := fn(i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	var first error
	for w := 0; w < nproc(); w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}
