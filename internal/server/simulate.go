package server

import (
	"context"
	"encoding/base64"
	"fmt"
	"net/http"
	"sync"

	"gskew/internal/api"
	"gskew/internal/lru"
	"gskew/internal/predictor"
	"gskew/internal/sim"
	"gskew/internal/store"
	"gskew/internal/trace"
	"gskew/internal/tracepool"
	"gskew/internal/workload"
)

// maxSweepSpecs bounds one request's sweep width; wider sweeps should
// be split across requests (each still shares the store).
const maxSweepSpecs = 256

// handleSimulate runs a spec sweep over one workload, serving every
// cell it can from the store and simulating the rest in a single
// RunMany pass gated by the shared scheduler. Where a cell came from
// never shows in the body (only in X-Cache and the metrics), which is
// what keeps cold and cached responses byte-identical.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) error {
	mSimRequests.Inc()
	var req api.SimulateRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	if len(req.Specs) == 0 {
		return apiErrorf(http.StatusBadRequest, api.CodeBadRequest, "no specs given")
	}
	if len(req.Specs) > maxSweepSpecs {
		return apiErrorf(http.StatusBadRequest, api.CodeBadRequest,
			"%d specs exceeds the per-request limit of %d", len(req.Specs), maxSweepSpecs)
	}

	// Canonicalise every spec up front: the canonical string is the
	// store key component, so misspellings fail fast and equivalent
	// spellings share cache cells.
	specs := make([]predictor.Spec, len(req.Specs))
	canon := make([]string, len(req.Specs))
	for i, text := range req.Specs {
		sp, err := predictor.ParseSpec(text)
		if err != nil {
			return apiErrorf(http.StatusBadRequest, api.CodeBadSpec, "spec %d: %v", i, err)
		}
		specs[i] = sp
		canon[i] = sp.String()
	}

	branches, traceHash, info, err := s.resolveWorkload(&req)
	if err != nil {
		return err
	}

	opts := req.Options // already the normalized subset
	mSimCells.Add(int64(len(specs)))

	// First pass: collect what the store already has.
	keys := make([]store.Key, len(specs))
	entries := make([]store.Entry, len(specs))
	var missing []int
	for i := range specs {
		keys[i] = store.KeyFor(canon[i], traceHash, opts)
		if e, ok := s.store.Get(keys[i]); ok {
			entries[i] = e
			continue
		}
		missing = append(missing, i)
	}
	mCacheHits.Add(int64(len(specs) - len(missing)))
	mCacheMisses.Add(int64(len(missing)))

	// Second pass: one single-pass multi-predictor simulation for every
	// cell the store did not have, bounded by the shared scheduler.
	if len(missing) > 0 {
		preds := make([]predictor.Predictor, len(missing))
		for j, i := range missing {
			p, err := specs[i].New()
			if err != nil {
				return apiErrorf(http.StatusBadRequest, api.CodeBadSpec, "spec %d (%s): %v", i, canon[i], err)
			}
			preds[j] = p
		}
		results, err := s.runGated(r.Context(), branches, preds, opts.Sim())
		if err != nil {
			return err
		}
		for j, i := range missing {
			entries[i] = store.Entry{
				Schema:      store.SchemaVersion,
				Spec:        canon[i],
				TraceHash:   traceHash,
				Opts:        opts,
				StorageBits: preds[j].StorageBits(),
				Result:      results[j],
			}
			if err := s.store.Put(keys[i], entries[i]); err != nil {
				return fmt.Errorf("storing cell %s: %w", keys[i], err)
			}
		}
	}

	resp := api.SimulateResponse{Workload: info, Options: opts, Results: make([]api.SimulateCell, len(specs))}
	for i := range specs {
		resp.Results[i] = api.SimulateCell{
			Spec:        canon[i],
			Key:         keys[i].String(),
			StorageBits: entries[i].StorageBits,
			Result:      entries[i].Result,
		}
	}
	w.Header().Set("X-Cache", fmt.Sprintf("hits=%d misses=%d", len(specs)-len(missing), len(missing)))
	return writeJSON(w, resp)
}

// runGated claims a scheduler slot (or gives up when the request
// context — which carries the configured SimTimeout — ends first) and
// runs one RunMany pass. The queue-depth gauge counts requests between
// arrival at the gate and completion of their pass.
func (s *Server) runGated(ctx context.Context, branches []trace.Branch, preds []predictor.Predictor, opts sim.Options) ([]sim.Result, error) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.SimTimeout)
	defer cancel()
	mQueueDepth.Add(1)
	defer mQueueDepth.Add(-1)
	if err := s.sched.Acquire(ctx); err != nil {
		return nil, apiErrorf(http.StatusServiceUnavailable, api.CodeQueueFull, "simulation queue full: %v", err)
	}
	defer s.sched.Release()
	results, err := sim.RunMany(trace.NewSliceSource(branches), preds, opts)
	if err != nil {
		return nil, fmt.Errorf("simulating: %w", err)
	}
	return results, nil
}

// resolveWorkload materialises the request's trace: a cached named
// benchmark, an uploaded binary trace, or a pool segment by hash.
func (s *Server) resolveWorkload(req *api.SimulateRequest) ([]trace.Branch, string, api.WorkloadInfo, error) {
	given := 0
	for _, set := range []bool{req.Bench != "", req.TraceB64 != "", req.TraceSHA256 != ""} {
		if set {
			given++
		}
	}
	switch {
	case given > 1:
		return nil, "", api.WorkloadInfo{}, apiErrorf(http.StatusBadRequest, api.CodeBadWorkload,
			"give exactly one of bench, trace_b64 or trace_sha256")
	case req.Bench != "":
		if req.Scale < 0 || req.Scale > 1 {
			return nil, "", api.WorkloadInfo{}, apiErrorf(http.StatusBadRequest, api.CodeBadWorkload,
				"scale %g out of range [0,1] (0 = default)", req.Scale)
		}
		mt, err := s.traces.get(req.Bench, req.Scale, req.Seed)
		if err != nil {
			return nil, "", api.WorkloadInfo{}, apiErrorf(http.StatusBadRequest, api.CodeBadWorkload, "workload: %v", err)
		}
		info := api.WorkloadInfo{
			Bench: req.Bench, Scale: req.Scale, Seed: req.Seed,
			TraceSHA256: mt.hash, Branches: len(mt.branches),
		}
		return mt.branches, mt.hash, info, nil
	case req.TraceB64 != "":
		raw, err := base64.StdEncoding.DecodeString(req.TraceB64)
		if err != nil {
			return nil, "", api.WorkloadInfo{}, apiErrorf(http.StatusBadRequest, api.CodeBadTrace, "trace_b64: %v", err)
		}
		branches, err := decodeUpload(raw)
		if err != nil {
			return nil, "", api.WorkloadInfo{}, apiErrorf(http.StatusBadRequest, api.CodeBadTrace, "trace_b64: %v", err)
		}
		// Put-through: an inlined trace becomes poolable by hash, so a
		// client can upload once and sweep by trace_sha256 thereafter.
		hash, _, err := s.pool.PutEncoded(branches, raw)
		if err != nil {
			return nil, "", api.WorkloadInfo{}, fmt.Errorf("pooling trace: %w", err)
		}
		return branches, hash, api.WorkloadInfo{TraceSHA256: hash, Branches: len(branches)}, nil
	case req.TraceSHA256 != "":
		branches, ok := s.pool.Get(req.TraceSHA256)
		if !ok {
			return nil, "", api.WorkloadInfo{}, apiErrorf(http.StatusNotFound, api.CodeNoSuchTrace,
				"no pooled trace %s", req.TraceSHA256)
		}
		return branches, req.TraceSHA256, api.WorkloadInfo{TraceSHA256: req.TraceSHA256, Branches: len(branches)}, nil
	default:
		return nil, "", api.WorkloadInfo{}, apiErrorf(http.StatusBadRequest, api.CodeBadWorkload,
			"no workload: give bench, trace_b64 or trace_sha256")
	}
}

// materialisedTrace is one resident benchmark realisation.
type materialisedTrace struct {
	once     sync.Once
	branches []trace.Branch
	hash     string
	err      error
}

// traceCache shares materialised benchmark traces across requests,
// keyed by (bench, scale, seed). Generation happens outside the map
// lock behind a per-key once (the experiments.Context idiom), so
// concurrent first requests for the same workload materialise it
// exactly once. Capacity is bounded: inserting beyond it drops the
// least recently used entry — dropped slices stay valid for in-flight
// requests (they are immutable) and simply re-materialise on next use.
// The cache writes through to the trace segment pool under the same
// (bench, scale, seed) name: a pooled segment survives eviction (and,
// with a disk-backed pool, process restarts), so a re-requested
// workload is decoded from the pool instead of regenerated, and every
// benchmark materialisation is automatically addressable by
// trace_sha256.
type traceCache struct {
	mu   sync.Mutex
	pool *tracepool.Pool
	m    *lru.Cache[string, *materialisedTrace]
}

func newTraceCache(pool *tracepool.Pool) *traceCache {
	return &traceCache{pool: pool, m: lru.NewCache[string, *materialisedTrace](DefaultMaxTraces)}
}

func (c *traceCache) get(bench string, scale float64, seed uint64) (*materialisedTrace, error) {
	key := fmt.Sprintf("%s|%g|%d", bench, scale, seed)
	if workload.IsAlgo(bench) {
		// Scale does not apply to recorded algorithms; a scale-free key
		// shares the pooled segment with CLI and experiments runs.
		key = fmt.Sprintf("%s|%d", bench, seed)
	}
	c.mu.Lock()
	mt, ok := c.m.Get(key)
	if !ok {
		mt = &materialisedTrace{}
		c.m.Put(key, mt)
	}
	c.mu.Unlock()
	mt.once.Do(func() {
		if branches, hash, ok := c.pool.GetNamed(key); ok {
			mt.branches, mt.hash = branches, hash
			return
		}
		mt.branches, mt.err = workload.MaterializeAny(bench, workload.Config{Scale: scale, SeedOffset: seed})
		if mt.err == nil {
			// Write-through; a pool failure only costs re-materialisation
			// and hashing here.
			var err error
			if mt.hash, err = c.pool.PutNamed(key, mt.branches); err != nil {
				mt.hash = trace.HashBranches(mt.branches)
			}
		}
	})
	if mt.err != nil {
		// Do not cache failures.
		c.mu.Lock()
		if cur, _ := c.m.Peek(key); cur == mt {
			c.m.Remove(key)
		}
		c.mu.Unlock()
		return nil, mt.err
	}
	return mt, nil
}

// specExamples gives one valid canonical example per family.
var specExamples = map[string]string{
	"bimodal":    "bimodal:n=14,ctr=2",
	"gshare":     "gshare:n=14,k=12,ctr=2",
	"gselect":    "gselect:n=14,k=6,ctr=2",
	"gskewed":    "gskewed:n=12,k=8,banks=3,ctr=2,policy=partial",
	"egskew":     "egskew:n=12,k=12,ctr=2,policy=partial",
	"2bcgskew":   "2bcgskew:n=12,ks=7,k=14",
	"agree":      "agree:n=12,k=10,bias=12,ctr=2",
	"bimode":     "bimode:n=12,k=10,choice=12,ctr=2",
	"pas":        "pas:bht=10,local=8,n=12,ctr=2",
	"skewed-pas": "skewed-pas:bht=10,local=8,n=12,ctr=2,policy=partial",
	"unaliased":  "unaliased:k=12,ctr=2",
	"assoc-lru":  "assoc-lru:entries=1024,k=4,ctr=2",
	"tage":       "tage:n=9,k=20,kmin=4,tables=4,tag=8,ctr=3",
	"perceptron": "perceptron:n=9,k=16,tables=8,theta=44,ctr=8",
}

// handleSpecs serves grammar discovery: every predictor family with
// its accepted keys and a worked example, the benchmark suite, and the
// option and schema vocabulary a client needs to construct requests.
func (s *Server) handleSpecs(w http.ResponseWriter, _ *http.Request) error {
	fams := predictor.Families()
	docs := make([]api.SpecFamily, len(fams))
	for i, f := range fams {
		docs[i] = api.SpecFamily{Family: f, Keys: predictor.AllowedKeys(f), Example: specExamples[f]}
	}
	return writeJSON(w, api.SpecsResponse{
		Families:      docs,
		Benchmarks:    workload.Names(),
		Options:       []string{"skip_first_use", "history_bits", "flush_every"},
		SchemaVersion: store.SchemaVersion,
	})
}
