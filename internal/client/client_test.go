package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gskew/internal/api"
)

// Every stable error code the server can emit, with the status it
// travels on. The client must decode each envelope back into a typed
// *api.Error carrying exactly this code — this is the client half of
// the error contract (the server half lives in internal/server's
// handler tests, which assert the same codes on the wire).
var wireErrors = []struct {
	code   string
	status int
}{
	{api.CodeBadRequest, http.StatusBadRequest},
	{api.CodeBadSpec, http.StatusBadRequest},
	{api.CodeBadWorkload, http.StatusBadRequest},
	{api.CodeBadTrace, http.StatusBadRequest},
	{api.CodeNoSuchTrace, http.StatusNotFound},
	{api.CodeNoSuchSession, http.StatusNotFound},
	{api.CodeSessionConflict, http.StatusConflict},
	{api.CodeQueueFull, http.StatusServiceUnavailable},
	{api.CodeBodyTooLarge, http.StatusRequestEntityTooLarge},
	{api.CodeInternal, http.StatusInternalServerError},
}

// envelopeServer returns a server that answers every request with the
// given envelope.
func envelopeServer(t *testing.T, status int, code string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(api.ErrorEnvelope{
			Error: api.Error{Code: code, Message: "synthetic " + code},
		})
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestDecodeEveryStableCode: each wire envelope comes back as a typed
// *api.Error with the matching code and the transport status, through
// every decode path (typed response, raw response, GET, POST, DELETE).
func TestDecodeEveryStableCode(t *testing.T) {
	ctx := context.Background()
	for _, tc := range wireErrors {
		t.Run(tc.code, func(t *testing.T) {
			srv := envelopeServer(t, tc.status, tc.code)
			// WithRetries(1): 503-class codes must surface, not retry,
			// for this decoding test.
			c := New(srv.URL, WithRetries(1))

			_, err := c.Simulate(ctx, &api.SimulateRequest{Specs: []string{"gshare:n=8,k=6"}})
			if err == nil {
				t.Fatal("Simulate returned nil error for a non-2xx response")
			}
			if !api.IsCode(err, tc.code) {
				t.Fatalf("Simulate error code = %q, want %q (err: %v)", api.ErrCode(err), tc.code, err)
			}
			var ae *api.Error
			if !errors.As(err, &ae) {
				t.Fatalf("Simulate error is not an *api.Error: %T", err)
			}
			if ae.Status != tc.status {
				t.Errorf("decoded Status = %d, want %d", ae.Status, tc.status)
			}
			if ae.Message != "synthetic "+tc.code {
				t.Errorf("decoded Message = %q, want the envelope message", ae.Message)
			}

			// The same envelope decodes identically on the other verbs
			// and the raw-body paths.
			if _, _, err := c.SimulateRaw(ctx, &api.SimulateRequest{}); !api.IsCode(err, tc.code) {
				t.Errorf("SimulateRaw error code = %q, want %q", api.ErrCode(err), tc.code)
			}
			if _, err := c.Health(ctx); !api.IsCode(err, tc.code) {
				t.Errorf("Health error code = %q, want %q", api.ErrCode(err), tc.code)
			}
			if _, err := c.GetTrace(ctx, "deadbeef"); !api.IsCode(err, tc.code) {
				t.Errorf("GetTrace error code = %q, want %q", api.ErrCode(err), tc.code)
			}
			if _, err := c.EndSession(ctx, "s1"); !api.IsCode(err, tc.code) {
				t.Errorf("EndSession error code = %q, want %q", api.ErrCode(err), tc.code)
			}
		})
	}
}

// TestDecodeNonEnvelopeBody: a non-2xx response without a decodable
// envelope maps to CodeUnknown with the body as the message — the
// signature of a non-conforming endpoint, never of predserved itself.
func TestDecodeNonEnvelopeBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "plain text panic page", http.StatusInternalServerError)
	}))
	t.Cleanup(srv.Close)
	c := New(srv.URL, WithRetries(1))
	_, err := c.Health(context.Background())
	if !api.IsCode(err, api.CodeUnknown) {
		t.Fatalf("error code = %q, want %q", api.ErrCode(err), api.CodeUnknown)
	}
	var ae *api.Error
	if !errors.As(err, &ae) {
		t.Fatalf("error is not an *api.Error: %T", err)
	}
	if ae.Status != http.StatusInternalServerError {
		t.Errorf("Status = %d, want 500", ae.Status)
	}
	if ae.Message != "plain text panic page" {
		t.Errorf("Message = %q, want the raw body", ae.Message)
	}
}

// TestRetryOnQueueFull: a queue_full (503) response is retried and a
// later success wins — the retried request observes the full attempt
// budget, not the first failure.
func TestRetryOnQueueFull(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(api.ErrorEnvelope{
				Error: api.Error{Code: api.CodeQueueFull, Message: "saturated"},
			})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(api.Health{Status: "ok"})
	}))
	t.Cleanup(srv.Close)

	c := New(srv.URL, WithRetries(3), WithBackoff(time.Millisecond))
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatalf("Health after retries: %v", err)
	}
	if h.Status != "ok" {
		t.Errorf("Status = %q, want ok", h.Status)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("server saw %d calls, want 3 (two retried failures + success)", n)
	}
}

// TestRetryBudgetExhausted: when every attempt fails retryably, the
// final typed error still carries the stable code from the last
// envelope.
func TestRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int64
	srv := envelopeServer(t, http.StatusServiceUnavailable, api.CodeQueueFull)
	base := srv.Config.Handler
	srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		base.ServeHTTP(w, r)
	})

	c := New(srv.URL, WithRetries(3), WithBackoff(time.Millisecond))
	_, err := c.Health(context.Background())
	if !api.IsCode(err, api.CodeQueueFull) {
		t.Fatalf("error code = %q, want %q (err: %v)", api.ErrCode(err), api.CodeQueueFull, err)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("server saw %d calls, want the full attempt budget of 3", n)
	}
}

// TestNonRetryableNotRetried: a 400-class error consumes exactly one
// attempt — retrying a bad_spec would never help.
func TestNonRetryableNotRetried(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(api.ErrorEnvelope{
			Error: api.Error{Code: api.CodeBadSpec, Message: "no such family"},
		})
	}))
	t.Cleanup(srv.Close)

	c := New(srv.URL, WithRetries(3), WithBackoff(time.Millisecond))
	_, err := c.Simulate(context.Background(), &api.SimulateRequest{Specs: []string{"nope"}})
	if !api.IsCode(err, api.CodeBadSpec) {
		t.Fatalf("error code = %q, want %q", api.ErrCode(err), api.CodeBadSpec)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("server saw %d calls, want 1 (4xx is not retryable)", n)
	}
}

// TestSimulateRawCacheStats: the X-Cache response header parses into
// CacheStats alongside the exact body bytes.
func TestSimulateRawCacheStats(t *testing.T) {
	const body = `{"results":[]}`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Cache", "hits=7 misses=2")
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(body))
	}))
	t.Cleanup(srv.Close)

	c := New(srv.URL)
	data, cs, err := c.SimulateRaw(context.Background(), &api.SimulateRequest{})
	if err != nil {
		t.Fatalf("SimulateRaw: %v", err)
	}
	if string(data) != body {
		t.Errorf("body = %q, want the exact response bytes %q", data, body)
	}
	if cs.Hits != 7 || cs.Misses != 2 {
		t.Errorf("CacheStats = %+v, want {Hits:7 Misses:2}", cs)
	}
}

// TestContextCancellation: a context cancelled mid-backoff aborts the
// retry loop promptly instead of sleeping out the budget.
func TestContextCancellation(t *testing.T) {
	srv := envelopeServer(t, http.StatusServiceUnavailable, api.CodeQueueFull)
	c := New(srv.URL, WithRetries(10), WithBackoff(time.Hour))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Health(ctx)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the first attempt land and the backoff start
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Health returned nil error after cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Health did not return after context cancellation")
	}
}
