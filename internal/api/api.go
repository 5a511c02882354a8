// Package api is the typed wire contract of the prediction service:
// the single source of truth for every request body, response body and
// error shape that travels between predserved, the typed Go
// client (internal/client), the load generator (cmd/predload), the
// smoke scripts and the tests. The server encodes these types, the
// client decodes them, and nothing else hand-writes /v1 JSON.
//
// # Endpoints
//
// Public surface (stable, versioned under /v1):
//
//	POST   /v1/simulate             SimulateRequest  -> SimulateResponse
//	POST   /v1/predict              PredictRequest   -> PredictResponse
//	DELETE /v1/predict/{session}    -> SessionEndResponse
//	POST   /v1/traces               raw trace bytes  -> TraceIngestResponse
//	GET    /v1/traces/{hash}        -> canonical columnar trace bytes
//	GET    /v1/specs                -> SpecsResponse
//	GET    /v1/health               -> Health
//	GET    /healthz                 alias of /v1/health (legacy probes)
//
// # Error envelope
//
// Every non-2xx response from every endpoint above carries one JSON
// shape:
//
//	{"error": {"code": "bad_spec", "message": "spec 0: ..."}}
//
// Code is a stable machine-readable identifier (the Code* constants);
// Message is human-oriented and free to change. Clients dispatch on
// Code, never on Message or on HTTP status alone. The typed client
// surfaces the envelope as *api.Error.
package api

import (
	"errors"
	"fmt"

	"gskew/internal/sim"
	"gskew/internal/store"
)

// Stable machine-readable error codes. These are wire contract: a code,
// once shipped, keeps its meaning. New failure modes get new codes.
const (
	// CodeBadRequest: the request body is malformed (not JSON, unknown
	// fields, structurally invalid) or violates a request-level limit.
	CodeBadRequest = "bad_request"
	// CodeBadSpec: a predictor spec string does not parse or does not
	// construct (bad family, key, or parameter range).
	CodeBadSpec = "bad_spec"
	// CodeBadWorkload: the workload selection is invalid (unknown
	// benchmark, scale out of range, conflicting or missing workload
	// fields).
	CodeBadWorkload = "bad_workload"
	// CodeBadTrace: an uploaded trace body does not decode in any
	// supported serialisation.
	CodeBadTrace = "bad_trace"
	// CodeNoSuchTrace: the referenced trace_sha256 is not in the
	// server's trace pool.
	CodeNoSuchTrace = "no_such_trace"
	// CodeNoSuchSession: the predict session id does not exist and no
	// spec was sent to create it.
	CodeNoSuchSession = "no_such_session"
	// CodeSessionConflict: the session exists but is pinned to a
	// different predictor spec.
	CodeSessionConflict = "session_conflict"
	// CodeQueueFull: the simulation scheduler stayed saturated past the
	// request's queue timeout. Retryable.
	CodeQueueFull = "queue_full"
	// CodeBodyTooLarge: the request body exceeds the server's limit.
	CodeBodyTooLarge = "body_too_large"
	// CodeInternal: an unexpected server-side failure.
	CodeInternal = "internal"
	// CodeUnknown is used by clients for a non-2xx response whose body
	// does not carry a decodable envelope. Never sent by the server.
	CodeUnknown = "unknown"
)

// Error is the typed form of the wire error envelope, carried across
// the stack: handlers construct it (the server renders it as the
// envelope plus its Status), and the client decodes every non-2xx
// response back into it.
type Error struct {
	// Status is the HTTP status the error travels with. It is
	// transport framing, not identity: dispatch on Code.
	Status int `json:"-"`
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is the human-oriented description.
	Message string `json:"message"`
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("%s (http %d): %s", e.Code, e.Status, e.Message)
}

// Errorf builds a typed Error.
func Errorf(status int, code, format string, args ...any) *Error {
	return &Error{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// ErrCode extracts the stable code from any error chain containing an
// *Error; "" when there is none.
func ErrCode(err error) string {
	var e *Error
	if errors.As(err, &e) {
		return e.Code
	}
	return ""
}

// IsCode reports whether err carries the given stable code.
func IsCode(err error, code string) bool { return ErrCode(err) == code }

// ErrorEnvelope is the JSON body of every non-2xx response.
type ErrorEnvelope struct {
	Error Error `json:"error"`
}

// Options is the result-relevant simulation option subset; it is both
// a request field and a cache-key component (store.Options verbatim —
// one normalization, one wire form).
type Options = store.Options

// Result is one simulation outcome (sim.Result verbatim; round-trips
// through JSON bit-identically).
type Result = sim.Result

// SimulateRequest is the wire form of POST /v1/simulate. The workload
// is exactly one of: a named benchmark (Bench, with optional Scale and
// Seed), an inlined trace in any supported binary serialisation
// (TraceB64), or a pooled trace addressed by content hash
// (TraceSHA256).
type SimulateRequest struct {
	// Specs are predictor spec strings ("family:key=value,..."); the
	// sweep runs all of them in one single-pass simulation over the
	// shared trace decoding. They are canonicalised server-side, so
	// equivalent spellings share result-cache cells.
	Specs []string `json:"specs"`

	Bench string  `json:"bench,omitempty"`
	Scale float64 `json:"scale,omitempty"`
	Seed  uint64  `json:"seed,omitempty"`

	TraceB64 string `json:"trace_b64,omitempty"`

	// TraceSHA256 addresses a trace already in the segment pool. The
	// response is byte-identical to inlining the same trace.
	TraceSHA256 string `json:"trace_sha256,omitempty"`

	Options Options `json:"options,omitempty"`
}

// SimulateCell is one per-spec result row of a sweep.
type SimulateCell struct {
	Spec        string `json:"spec"`
	Key         string `json:"key"`
	StorageBits int    `json:"storage_bits"`
	Result      Result `json:"result"`
}

// SimulateResponse is the wire form of a completed sweep. It carries
// no cold/cached/peer-filled distinction — that lives in the X-Cache
// header — so repeated and cross-node requests are byte-identical.
type SimulateResponse struct {
	Workload WorkloadInfo   `json:"workload"`
	Options  Options        `json:"options"`
	Results  []SimulateCell `json:"results"`
}

// WorkloadInfo names the trace a sweep ran over.
type WorkloadInfo struct {
	Bench       string  `json:"bench,omitempty"`
	Scale       float64 `json:"scale,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`
	TraceSHA256 string  `json:"trace_sha256"`
	Branches    int     `json:"branches"`
}

// Branch is one branch event of a predict stream. Unconditional
// branches shift the session's global history without being predicted.
type Branch struct {
	PC     uint64 `json:"pc"`
	Taken  bool   `json:"taken"`
	Uncond bool   `json:"uncond,omitempty"`
}

// PredictRequest is the wire form of POST /v1/predict: a batch of
// branch events appended to a session-pinned predictor instance. The
// first request of a session must carry the spec; later requests may
// omit it (and are rejected with CodeSessionConflict if they name a
// different one — a session is one predictor).
type PredictRequest struct {
	Session  string   `json:"session"`
	Spec     string   `json:"spec,omitempty"`
	Branches []Branch `json:"branches"`
	// ReturnPredictions asks for the per-branch predicted directions.
	// It forces the generic per-branch path for this batch, so leave
	// it off for throughput.
	ReturnPredictions bool `json:"return_predictions,omitempty"`
}

// PredictResponse reports the batch and cumulative session accounting.
type PredictResponse struct {
	Session           string `json:"session"`
	Spec              string `json:"spec"`
	Conditionals      int    `json:"conditionals"`
	Mispredicts       int    `json:"mispredicts"`
	TotalConditionals int    `json:"total_conditionals"`
	TotalMispredicts  int    `json:"total_mispredicts"`
	Predictions       []bool `json:"predictions,omitempty"`
}

// SessionEndResponse is the wire form of DELETE /v1/predict/{session}.
type SessionEndResponse struct {
	Session string `json:"session"`
	Status  string `json:"status"`
}

// TraceIngestResponse is the wire form of a completed POST /v1/traces.
// There is deliberately no created/timestamp field: responses must not
// depend on whether this request or an earlier one pooled the segment.
type TraceIngestResponse struct {
	TraceSHA256 string `json:"trace_sha256"`
	Branches    int    `json:"branches"`
}

// SpecFamily is one row of the /v1/specs grammar listing.
type SpecFamily struct {
	Family  string   `json:"family"`
	Keys    []string `json:"keys"`
	Example string   `json:"example"`
}

// SpecsResponse is the wire form of GET /v1/specs: everything a client
// needs to construct requests.
type SpecsResponse struct {
	Families      []SpecFamily `json:"families"`
	Benchmarks    []string     `json:"benchmarks"`
	Options       []string     `json:"options"`
	SchemaVersion int          `json:"schema_version"`
}

// Health is the wire form of GET /v1/health (and its /healthz alias):
// liveness plus per-subsystem readiness detail.
type Health struct {
	Status   string      `json:"status"`
	UptimeMS int64       `json:"uptime_ms"`
	Store    StoreHealth `json:"store"`
	Sched    SchedHealth `json:"scheduler"`
	Sessions int         `json:"sessions"`
	Pool     PoolHealth  `json:"trace_pool"`
}

// StoreHealth describes the result store tiers.
type StoreHealth struct {
	MemEntries int  `json:"mem_entries"`
	Disk       bool `json:"disk"`
}

// SchedHealth describes the simulation scheduler.
type SchedHealth struct {
	QueueDepth int64 `json:"queue_depth"`
}

// PoolHealth describes the trace segment pool tiers.
type PoolHealth struct {
	MemSegments int  `json:"mem_segments"`
	Disk        bool `json:"disk"`
}
