// Package client is the typed Go client of the prediction service:
// the one place HTTP requests to predserved are constructed. The load
// generator (cmd/predload), the smoke scripts (through predload's
// subcommands) and the server's own tests all go through it, so the
// wire contract (internal/api) has exactly one encoder and one
// decoder on the client side.
//
// Every method takes a context (cancellation and deadlines propagate
// into the HTTP round trip) and surfaces non-2xx responses as typed
// *api.Error values carrying the stable machine-readable code from
// the error envelope:
//
//	c := client.New("http://127.0.0.1:8149")
//	resp, err := c.Simulate(ctx, &api.SimulateRequest{...})
//	if api.IsCode(err, api.CodeBadSpec) { ... }
//
// Transient failures — transport errors and 502/503/504 statuses,
// notably api.CodeQueueFull — are retried with exponential backoff
// (every service request is idempotent by design: simulation cells
// are content-addressed and trace ingest deduplicates, so a retried
// request returns a byte-identical response). Retries respect the
// context; WithRetries(1) disables them.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"gskew/internal/api"
)

// Defaults for the retry policy.
const (
	DefaultAttempts = 3
	DefaultBackoff  = 50 * time.Millisecond
)

// Client talks to one predserved node.
type Client struct {
	base     string
	hc       *http.Client
	attempts int
	backoff  time.Duration
}

// Option adjusts a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying http.Client (custom
// transports, test doubles).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets the total attempt budget per request (minimum 1 —
// i.e. no retries).
func WithRetries(attempts int) Option {
	return func(c *Client) { c.attempts = max(1, attempts) }
}

// WithBackoff sets the base backoff delay; it doubles per retry.
func WithBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// New returns a client for the node at base (e.g.
// "http://127.0.0.1:8149"; a trailing slash is tolerated).
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:     strings.TrimRight(base, "/"),
		hc:       &http.Client{},
		attempts: DefaultAttempts,
		backoff:  DefaultBackoff,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// CacheStats is the parsed X-Cache response header of a sweep: how
// many of the request's cells were served from the store versus
// simulated on this request.
type CacheStats struct {
	Hits   int
	Misses int
}

// retryable reports whether a response status is worth retrying:
// gateway failures and an overfull simulation queue (503), which the
// server bounds with its own queue timeout.
func retryable(status int) bool {
	return status == http.StatusBadGateway ||
		status == http.StatusServiceUnavailable ||
		status == http.StatusGatewayTimeout
}

// do performs one request with the retry policy and returns the raw
// response. Non-2xx responses come back as (status, body, header,
// nil); the caller decides whether that is an error (decodeErr).
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte) (int, []byte, http.Header, error) {
	var lastErr error
	for attempt := 0; attempt < c.attempts; attempt++ {
		if attempt > 0 {
			delay := c.backoff << (attempt - 1)
			select {
			case <-ctx.Done():
				return 0, nil, nil, ctx.Err()
			case <-time.After(delay):
			}
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return 0, nil, nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return 0, nil, nil, err
			}
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if retryable(resp.StatusCode) && attempt < c.attempts-1 {
			lastErr = decodeErr(resp.StatusCode, data)
			continue
		}
		return resp.StatusCode, data, resp.Header, nil
	}
	return 0, nil, nil, fmt.Errorf("client: %s %s: %w", method, path, lastErr)
}

// decodeErr turns a non-2xx body into the typed error, preserving the
// stable code from the envelope. A body that does not carry a
// decodable envelope maps to api.CodeUnknown (never sent by the
// server, so its presence flags a non-conforming endpoint).
func decodeErr(status int, body []byte) *api.Error {
	var env api.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		e := env.Error
		e.Status = status
		return &e
	}
	msg := strings.TrimSpace(string(body))
	if len(msg) > 512 {
		msg = msg[:512]
	}
	return &api.Error{Status: status, Code: api.CodeUnknown, Message: msg}
}

// roundTrip performs a request and decodes a 2xx JSON response into
// out (skipped when out is nil), mapping non-2xx to *api.Error.
func (c *Client) roundTrip(ctx context.Context, method, path, contentType string, body []byte, out any) (http.Header, error) {
	status, data, hdr, err := c.do(ctx, method, path, contentType, body)
	if err != nil {
		return nil, err
	}
	if status/100 != 2 {
		return hdr, decodeErr(status, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return hdr, fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
		}
	}
	return hdr, nil
}

// postJSON marshals req and round-trips it.
func (c *Client) postJSON(ctx context.Context, path string, req, out any) (http.Header, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: encoding %s request: %w", path, err)
	}
	return c.roundTrip(ctx, http.MethodPost, path, "application/json", body, out)
}

// Simulate runs a spec sweep over one workload.
func (c *Client) Simulate(ctx context.Context, req *api.SimulateRequest) (*api.SimulateResponse, error) {
	var resp api.SimulateResponse
	if _, err := c.postJSON(ctx, "/v1/simulate", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SimulateRaw runs a sweep and returns the exact response bytes plus
// the parsed cache stats — the byte-identity primitive the smoke
// scripts and the load generator are built on.
func (c *Client) SimulateRaw(ctx context.Context, req *api.SimulateRequest) ([]byte, CacheStats, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, CacheStats{}, fmt.Errorf("client: encoding /v1/simulate request: %w", err)
	}
	status, data, hdr, err := c.do(ctx, http.MethodPost, "/v1/simulate", "application/json", body)
	if err != nil {
		return nil, CacheStats{}, err
	}
	if status/100 != 2 {
		return nil, CacheStats{}, decodeErr(status, data)
	}
	var cs CacheStats
	fmt.Sscanf(hdr.Get("X-Cache"), "hits=%d misses=%d", &cs.Hits, &cs.Misses)
	return data, cs, nil
}

// Predict appends one batch of branches to a session-pinned predictor.
func (c *Client) Predict(ctx context.Context, req *api.PredictRequest) (*api.PredictResponse, error) {
	var resp api.PredictResponse
	if _, err := c.postJSON(ctx, "/v1/predict", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// EndSession releases a predict session's predictor state.
func (c *Client) EndSession(ctx context.Context, session string) (*api.SessionEndResponse, error) {
	var resp api.SessionEndResponse
	if _, err := c.roundTrip(ctx, http.MethodDelete, "/v1/predict/"+session, "", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// IngestTrace pools a raw binary trace (columnar, or legacy varint)
// and returns its content hash.
func (c *Client) IngestTrace(ctx context.Context, raw []byte) (*api.TraceIngestResponse, error) {
	var resp api.TraceIngestResponse
	if _, err := c.roundTrip(ctx, http.MethodPost, "/v1/traces", "application/octet-stream", raw, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// GetTrace fetches a pooled segment as canonical columnar bytes.
func (c *Client) GetTrace(ctx context.Context, hash string) ([]byte, error) {
	status, data, _, err := c.do(ctx, http.MethodGet, "/v1/traces/"+hash, "", nil)
	if err != nil {
		return nil, err
	}
	if status/100 != 2 {
		return nil, decodeErr(status, data)
	}
	return data, nil
}

// Specs fetches the grammar discovery document.
func (c *Client) Specs(ctx context.Context) (*api.SpecsResponse, error) {
	var resp api.SpecsResponse
	if _, err := c.roundTrip(ctx, http.MethodGet, "/v1/specs", "", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Health fetches the readiness document.
func (c *Client) Health(ctx context.Context) (*api.Health, error) {
	var resp api.Health
	if _, err := c.roundTrip(ctx, http.MethodGet, "/v1/health", "", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// MetricsRaw fetches the obs registry snapshot (the /metrics debug
// surface) as raw JSON. The snapshot is diagnostic, not part of the
// /v1 contract; smoke tooling reads counters out of it.
func (c *Client) MetricsRaw(ctx context.Context) ([]byte, error) {
	status, data, _, err := c.do(ctx, http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	if status/100 != 2 {
		return nil, decodeErr(status, data)
	}
	return data, nil
}

// Metric fetches one numeric metric by name from the snapshot
// (0 when absent — counters not yet incremented are indistinguishable
// from unregistered ones).
func (c *Client) Metric(ctx context.Context, name string) (int64, error) {
	data, err := c.MetricsRaw(ctx)
	if err != nil {
		return 0, err
	}
	// Histogram entries are objects; decode lazily so they don't break
	// scalar lookups.
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(data, &snap); err != nil {
		return 0, fmt.Errorf("client: decoding /metrics: %w", err)
	}
	raw, ok := snap[name]
	if !ok {
		return 0, nil
	}
	var n json.Number
	if err := json.Unmarshal(raw, &n); err != nil {
		return 0, fmt.Errorf("client: metric %s is not numeric: %s", name, raw)
	}
	v, err := n.Int64()
	if err != nil {
		f, ferr := n.Float64()
		if ferr != nil {
			return 0, fmt.Errorf("client: metric %s = %q is not numeric", name, n)
		}
		v = int64(f)
	}
	return v, nil
}

// Do is the raw escape hatch: one request with the client's transport
// and base URL but no retry policy, no envelope decoding and no body
// typing. Adversarial tests use it to send malformed bodies; smoke
// tooling uses it where exact response bytes matter for non-/v1
// paths. path must start with "/".
func (c *Client) Do(ctx context.Context, method, path, contentType string, body []byte) (int, []byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, data, resp.Header, nil
}
