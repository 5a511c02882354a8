// Package server exposes the simulator as a long-running HTTP service:
// simulation-as-a-service over the repository's whole stack. Requests
// arrive as JSON in the typed wire contract of internal/api, predictors
// are described by canonical spec strings (predictor.ParseSpec),
// workloads are either the named synthetic benchmarks or uploaded
// traces, sweeps run single-pass through sim.RunMany on the
// compiled-kernel fast path, and every finished cell lands in a
// content-addressed result store so overlapping (spec, trace, options)
// cells across clients are simulated once.
//
// The endpoint and error-envelope reference lives in internal/api's
// package documentation; this package is the serving half of that
// contract. Every failure renders the structured envelope
// {"error":{"code":...,"message":...}} with a stable machine-readable
// code.
//
// Simulation work is gated through a shared experiments.Sched, so the
// number of in-flight simulation passes never exceeds the configured
// width no matter how many requests are being served; waiters observe
// the request context and give up with 503/queue_full when it expires.
// Responses for identical requests are byte-identical whether served
// cold or from the store — the store round-trips
// sim.Result bit-exactly and cache status travels in the X-Cache
// header, never in the body.
package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"gskew/internal/api"
	"gskew/internal/experiments"
	"gskew/internal/obs"
	"gskew/internal/store"
	"gskew/internal/tracepool"
)

// latencyBoundsUS are server.latency_us's bucket bounds. A cached
// read takes ~0.2 ms, so they start at 50 µs and step 1-2.5-5 per
// decade up to 10 s.
var latencyBoundsUS = []int64{
	50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000, 1_000_000, 2_500_000, 5_000_000, 10_000_000}

// Server telemetry, registered in the default obs registry.
var (
	mRequests    = obs.NewCounter("server.requests")
	mErrors      = obs.NewCounter("server.errors")
	mLatencyUS   = obs.NewHistogram("server.latency_us", latencyBoundsUS)
	mSimRequests = obs.NewCounter("server.simulate.requests")
	mSimCells    = obs.NewCounter("server.simulate.cells")
	mCacheHits   = obs.NewCounter("server.simulate.cache_hits")
	mCacheMisses = obs.NewCounter("server.simulate.cache_misses")
	mQueueDepth  = obs.NewGauge("server.queue_depth")
	mPredReqs    = obs.NewCounter("server.predict.requests")
	mPredSteps   = obs.NewCounter("server.predict.branches")
	mSessions    = obs.NewGauge("server.sessions")
)

// Config adjusts a Server. The zero value of every field selects a
// sensible default.
type Config struct {
	// Store is the result cache. Nil selects a fresh memory-only store
	// with DefaultMemEntries cells.
	Store *store.Store
	// Sched bounds concurrent simulation passes (shared with any other
	// driver using the same scheduler). Nil selects GOMAXPROCS width.
	Sched *experiments.Sched
	// MaxBodyBytes caps request bodies (default DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// SimTimeout bounds how long a simulate request may wait for a
	// scheduler slot before giving up with 503 (default
	// DefaultSimTimeout). The wait also ends when the client goes away.
	SimTimeout time.Duration
	// MaxSessions caps live /v1/predict sessions; the least recently
	// used session is evicted beyond it (default DefaultMaxSessions).
	MaxSessions int
	// Pool is the content-addressed trace segment pool behind
	// POST /v1/traces, GET /v1/traces/{hash} and the trace_sha256
	// workload form of /v1/simulate; benchmark materialisations are
	// also pooled through it. Nil selects a fresh memory-only pool of
	// DefaultPoolEntries segments.
	Pool *tracepool.Pool
}

// Defaults for Config fields.
const (
	DefaultMemEntries   = 4096
	DefaultMaxBodyBytes = 8 << 20
	DefaultSimTimeout   = 60 * time.Second
	DefaultMaxSessions  = 256
	DefaultMaxTraces    = 12 // distinct materialised benchmark workloads held in memory
	DefaultPoolEntries  = 12
)

// Server is the HTTP simulation service. Create with New; serve its
// Handler. A Server owns no goroutines — lifecycle (listening,
// draining) belongs to the caller, so cmd/predserved can drain on
// SIGTERM by simply shutting down its http.Server.
type Server struct {
	cfg      Config
	store    *store.Store
	sched    *experiments.Sched
	pool     *tracepool.Pool
	traces   *traceCache
	sessions *sessionTable
	start    time.Time
	mux      *http.ServeMux
}

// New builds a Server from cfg, applying defaults. Metric collection
// is enabled (the server exists to be observed; its /metrics endpoint
// is the contract the serve-smoke CI tier asserts cache hits through).
func New(cfg Config) *Server {
	obs.Enable()
	if cfg.Store == nil {
		cfg.Store, _ = store.Open(DefaultMemEntries, "")
	}
	if cfg.Sched == nil {
		cfg.Sched = experiments.NewSched(0)
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.SimTimeout <= 0 {
		cfg.SimTimeout = DefaultSimTimeout
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.Pool == nil {
		cfg.Pool, _ = tracepool.Open(DefaultPoolEntries, "")
	}
	s := &Server{
		cfg:      cfg,
		store:    cfg.Store,
		sched:    cfg.Sched,
		pool:     cfg.Pool,
		traces:   newTraceCache(cfg.Pool),
		sessions: newSessionTable(cfg.MaxSessions),
		start:    time.Now(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", s.instrument(s.handleSimulate))
	mux.HandleFunc("POST /v1/traces", s.instrument(s.handleTraceIngest))
	mux.HandleFunc("GET /v1/traces/{hash}", s.instrument(s.handleTraceGet))
	mux.HandleFunc("POST /v1/predict", s.instrument(s.handlePredict))
	mux.HandleFunc("DELETE /v1/predict/{session}", s.instrument(s.handleEndSession))
	mux.HandleFunc("GET /v1/specs", s.instrument(s.handleSpecs))
	mux.HandleFunc("GET /v1/health", s.instrument(s.handleHealth))
	// Legacy liveness path: thin alias of /v1/health for probes that
	// predate the versioned surface.
	mux.HandleFunc("GET /healthz", s.instrument(s.handleHealth))
	debug := obs.DebugMux()
	mux.Handle("/metrics", debug)
	mux.Handle("/debug/", debug)
	s.mux = mux
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Store returns the result store the server is fronting.
func (s *Server) Store() *store.Store { return s.store }

// apiErrorf builds the typed error handlers return: an HTTP status for
// transport, a stable api.Code* for clients to dispatch on, and a
// human-oriented message. instrument renders it as the wire envelope.
func apiErrorf(status int, code, format string, args ...any) error {
	return api.Errorf(status, code, format, args...)
}

// observeLatency records one request's latency in server.latency_us.
func observeLatency(d time.Duration) { mLatencyUS.Observe(d.Microseconds()) }

// instrument wraps a handler with the request counters, the latency
// histogram and uniform error-envelope rendering.
func (s *Server) instrument(fn func(w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		mRequests.Inc()
		var start time.Time
		if obs.Enabled() {
			start = time.Now()
		}
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		err := fn(w, r)
		if !start.IsZero() {
			observeLatency(time.Since(start))
		}
		if err == nil {
			return
		}
		mErrors.Inc()
		var ae *api.Error
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &ae):
			// Keep ae: already the wire form.
		case errors.As(err, &tooBig):
			ae = api.Errorf(http.StatusRequestEntityTooLarge, api.CodeBodyTooLarge,
				"request body exceeds %d bytes", s.cfg.MaxBodyBytes)
		default:
			ae = api.Errorf(http.StatusInternalServerError, api.CodeInternal, "%v", err)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(ae.Status)
		json.NewEncoder(w).Encode(api.ErrorEnvelope{Error: *ae})
	}
}

// writeJSON renders a success body. Encoding is deterministic (fixed
// struct field order), which is what makes cold and cached responses
// to the same request byte-identical.
func writeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// decodeJSON parses a request body, mapping malformed input to
// 400/bad_request and an oversized body to 413/body_too_large.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return err
		}
		return apiErrorf(http.StatusBadRequest, api.CodeBadRequest, "decoding request: %v", err)
	}
	return nil
}

// handleHealth serves GET /v1/health (and its /healthz alias):
// liveness plus per-subsystem readiness detail.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) error {
	return writeJSON(w, api.Health{
		Status:   "ok",
		UptimeMS: time.Since(s.start).Milliseconds(),
		Store: api.StoreHealth{
			MemEntries: s.store.Len(),
			Disk:       s.store.Dir() != "",
		},
		Sched:    api.SchedHealth{QueueDepth: mQueueDepth.Value()},
		Sessions: s.sessions.len(),
		Pool: api.PoolHealth{
			MemSegments: s.pool.Len(),
			Disk:        s.pool.Dir() != "",
		},
	})
}
