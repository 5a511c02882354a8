package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"gskew/internal/api"
	"gskew/internal/client"
	"gskew/internal/experiments"
	"gskew/internal/obs"
	"gskew/internal/predictor"
	"gskew/internal/sim"
	"gskew/internal/store"
	"gskew/internal/trace"
	"gskew/internal/workload"
)

// newTestServer returns a service over a fresh memory-only store.
func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	if cfg.Store == nil {
		st, err := store.Open(128, "")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	ts := httptest.NewServer(New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// testClient builds a typed client for a URL's base. All HTTP in these
// tests flows through internal/client — the same path real callers use.
func testClient(t *testing.T, rawURL string) (*client.Client, string) {
	t.Helper()
	u, err := url.Parse(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	return client.New(u.Scheme + "://" + u.Host), u.Path
}

// postJSON posts an arbitrary (possibly malformed) JSON body through
// the typed client's raw escape hatch and returns the raw response.
func postJSON(t *testing.T, rawURL, body string) (int, string, http.Header) {
	t.Helper()
	c, path := testClient(t, rawURL)
	status, data, hdr, err := c.Do(context.Background(), http.MethodPost, path, "application/json", []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	return status, string(data), hdr
}

func getJSON(t *testing.T, rawURL string) (int, string) {
	t.Helper()
	c, path := testClient(t, rawURL)
	status, data, _, err := c.Do(context.Background(), http.MethodGet, path, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	return status, string(data)
}

// wantCode asserts an error body is the structured envelope carrying
// the expected stable code.
func wantCode(t *testing.T, name, body, code string) {
	t.Helper()
	var env api.ErrorEnvelope
	if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error.Code == "" {
		t.Errorf("%s: body is not an error envelope: %s", name, body)
		return
	}
	if env.Error.Code != code {
		t.Errorf("%s: error code %q, want %q (message: %s)", name, env.Error.Code, code, env.Error.Message)
	}
	if env.Error.Message == "" {
		t.Errorf("%s: envelope has no message: %s", name, body)
	}
}

const sweepBody = `{"specs":["bimodal:n=8","gshare:n=8,k=6","gskewed:n=7,k=5"],"bench":"verilog","scale":0.002}`

func TestSimulateMatchesDirectRun(t *testing.T) {
	ts := newTestServer(t, Config{})
	status, body, _ := postJSON(t, ts.URL+"/v1/simulate", sweepBody)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp struct {
		Workload struct {
			TraceSHA256 string `json:"trace_sha256"`
			Branches    int    `json:"branches"`
		} `json:"workload"`
		Results []struct {
			Spec        string     `json:"spec"`
			Key         string     `json:"key"`
			StorageBits int        `json:"storage_bits"`
			Result      sim.Result `json:"result"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("decoding: %v\n%s", err, body)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}

	// Reproduce the cells directly through the library and compare.
	spec, err := workload.ByName("verilog")
	if err != nil {
		t.Fatal(err)
	}
	branches, err := workload.Materialize(spec, workload.Config{Scale: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	if got := trace.HashBranches(branches); got != resp.Workload.TraceSHA256 {
		t.Errorf("trace hash %s, want %s", resp.Workload.TraceSHA256, got)
	}
	if resp.Workload.Branches != len(branches) {
		t.Errorf("branches %d, want %d", resp.Workload.Branches, len(branches))
	}
	for i, specText := range []string{"bimodal:n=8,ctr=2", "gshare:n=8,k=6,ctr=2", "gskewed:n=7,k=5,banks=3,ctr=2,policy=partial"} {
		if resp.Results[i].Spec != specText {
			t.Errorf("result %d spec %q, want canonical %q", i, resp.Results[i].Spec, specText)
		}
		p := predictor.MustParseSpec(specText)
		want, err := sim.RunBranches(branches, p, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Results[i].Result != want {
			t.Errorf("result %d = %+v, want %+v (direct run)", i, resp.Results[i].Result, want)
		}
		if resp.Results[i].StorageBits != p.StorageBits() {
			t.Errorf("result %d storage bits %d, want %d", i, resp.Results[i].StorageBits, p.StorageBits())
		}
	}
}

func TestSimulateCachesByteIdentical(t *testing.T) {
	ts := newTestServer(t, Config{})
	_, cold, h1 := postJSON(t, ts.URL+"/v1/simulate", sweepBody)
	_, warm, h2 := postJSON(t, ts.URL+"/v1/simulate", sweepBody)
	if cold != warm {
		t.Errorf("cold and cached bodies differ:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
	}
	if got := h1.Get("X-Cache"); got != "hits=0 misses=3" {
		t.Errorf("cold X-Cache = %q", got)
	}
	if got := h2.Get("X-Cache"); got != "hits=3 misses=0" {
		t.Errorf("warm X-Cache = %q", got)
	}
}

func TestSimulateCacheKeyedOnCanonicalSpec(t *testing.T) {
	ts := newTestServer(t, Config{})
	// Prime with a default-implicit spelling, then re-request with the
	// explicit canonical spelling: must be all hits.
	postJSON(t, ts.URL+"/v1/simulate", `{"specs":["gshare:n=8,k=6"],"bench":"verilog","scale":0.002}`)
	_, _, h := postJSON(t, ts.URL+"/v1/simulate", `{"specs":["gshare:n=8,k=6,ctr=2"],"bench":"verilog","scale":0.002}`)
	if got := h.Get("X-Cache"); got != "hits=1 misses=0" {
		t.Errorf("canonicalised respelling missed the cache: X-Cache = %q", got)
	}
}

func TestSimulateOptionsParticipateInKeys(t *testing.T) {
	ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/simulate", sweepBody)
	_, body, h := postJSON(t, ts.URL+"/v1/simulate",
		`{"specs":["bimodal:n=8","gshare:n=8,k=6","gskewed:n=7,k=5"],"bench":"verilog","scale":0.002,"options":{"flush_every":5000}}`)
	if got := h.Get("X-Cache"); got != "hits=0 misses=3" {
		t.Errorf("different options hit the cache: X-Cache = %q\n%s", got, body)
	}
	var resp struct {
		Results []struct {
			Result sim.Result `json:"result"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Result.Flushes == 0 {
		t.Error("flush_every option ignored by simulation")
	}
}

func TestSimulateUploadedTrace(t *testing.T) {
	ts := newTestServer(t, Config{})
	// Upload the legacy varint fixture inline.
	legacy, branches := legacyTrace(t)
	body := fmt.Sprintf(`{"specs":["gshare:n=6,k=4"],"trace_b64":%q}`, base64.StdEncoding.EncodeToString(legacy))
	status, out, _ := postJSON(t, ts.URL+"/v1/simulate", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, out)
	}
	var resp struct {
		Workload struct {
			TraceSHA256 string `json:"trace_sha256"`
			Branches    int    `json:"branches"`
		} `json:"workload"`
		Results []struct {
			Result sim.Result `json:"result"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Workload.Branches != len(branches) {
		t.Errorf("branches %d, want %d", resp.Workload.Branches, len(branches))
	}
	if resp.Workload.TraceSHA256 != trace.HashBranches(branches) {
		t.Error("uploaded trace hash mismatch")
	}
	want, err := sim.RunBranches(branches, predictor.MustParseSpec("gshare:n=6,k=4"), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Result != want {
		t.Errorf("uploaded-trace result %+v, want %+v", resp.Results[0].Result, want)
	}
}

func TestSimulateRejectsBadRequests(t *testing.T) {
	ts := newTestServer(t, Config{})
	for name, tc := range map[string]struct {
		body string
		want int
		code string
	}{
		"empty specs":     {`{"specs":[],"bench":"verilog"}`, http.StatusBadRequest, api.CodeBadRequest},
		"bad spec":        {`{"specs":["oracle:n=8"],"bench":"verilog"}`, http.StatusBadRequest, api.CodeBadSpec},
		"bad spec params": {`{"specs":["gshare:n=99"],"bench":"verilog","scale":0.002}`, http.StatusBadRequest, api.CodeBadSpec},
		"no workload":     {`{"specs":["bimodal:n=8"]}`, http.StatusBadRequest, api.CodeBadWorkload},
		"both workloads":  {`{"specs":["bimodal:n=8"],"bench":"verilog","trace_b64":"aGk="}`, http.StatusBadRequest, api.CodeBadWorkload},
		"unknown bench":   {`{"specs":["bimodal:n=8"],"bench":"quake3"}`, http.StatusBadRequest, api.CodeBadWorkload},
		"bad scale":       {`{"specs":["bimodal:n=8"],"bench":"verilog","scale":7}`, http.StatusBadRequest, api.CodeBadWorkload},
		"bad base64":      {`{"specs":["bimodal:n=8"],"trace_b64":"!!!"}`, http.StatusBadRequest, api.CodeBadTrace},
		"not json":        {`{nope`, http.StatusBadRequest, api.CodeBadRequest},
		"unknown field":   {`{"specs":["bimodal:n=8"],"bench":"verilog","turbo":true}`, http.StatusBadRequest, api.CodeBadRequest},
		"missing trace":   {`{"specs":["bimodal:n=8"],"trace_sha256":"` + strings.Repeat("0", 64) + `"}`, http.StatusNotFound, api.CodeNoSuchTrace},
	} {
		status, body, _ := postJSON(t, ts.URL+"/v1/simulate", tc.body)
		if status != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", name, status, tc.want, body)
		}
		wantCode(t, name, body, tc.code)
	}
}

func TestRequestBodyLimit(t *testing.T) {
	ts := newTestServer(t, Config{MaxBodyBytes: 1024})
	big := fmt.Sprintf(`{"specs":["bimodal:n=8"],"bench":"verilog","trace_b64":%q}`,
		strings.Repeat("A", 4096))
	status, body, _ := postJSON(t, ts.URL+"/v1/simulate", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", status)
	}
	wantCode(t, "oversized body", body, api.CodeBodyTooLarge)
}

// TestPredictSegmentedBatch: a 40k-branch batch (a size the route
// once split into segments) on the default kernel path (one StepBatch call) must report exactly the
// mispredicts of the same batch on the return_predictions generic
// path, and leave the session in the same trained state: a follow-up
// batch read through the generic path predicts identically in both
// sessions.
func TestPredictSegmentedBatch(t *testing.T) {
	ts := newTestServer(t, Config{})
	c, _ := testClient(t, ts.URL)
	const spec = "gshare:n=9,k=7"
	batch := make([]api.Branch, 0, 40000)
	for i := 0; len(batch) < cap(batch); i++ {
		batch = append(batch, api.Branch{PC: 0x40 + uint64(i%113)*4, Taken: (i*i+i/3)%3 != 0, Uncond: i%17 == 0})
	}
	predict := func(session string, branches []api.Branch, generic bool) *api.PredictResponse {
		t.Helper()
		resp, err := c.Predict(context.Background(), &api.PredictRequest{
			Session: session, Spec: spec, Branches: branches, ReturnPredictions: generic,
		})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	kern, gen := predict("kernel", batch, false), predict("generic", batch, true)
	if kern.Conditionals != gen.Conditionals || kern.Mispredicts != gen.Mispredicts {
		t.Fatalf("kernel batch cond=%d mispred=%d, generic cond=%d mispred=%d",
			kern.Conditionals, kern.Mispredicts, gen.Conditionals, gen.Mispredicts)
	}
	tail := batch[:4096]
	kt, gt := predict("kernel", tail, true), predict("generic", tail, true)
	if kt.Mispredicts != gt.Mispredicts || !slices.Equal(kt.Predictions, gt.Predictions) {
		t.Errorf("after the large batch the kernel session predicts differently (mispred %d vs %d)",
			kt.Mispredicts, gt.Mispredicts)
	}
}

func TestPredictSessionLifecycle(t *testing.T) {
	ts := newTestServer(t, Config{})
	// Build a short stream and its expected accounting via the library.
	branches := []trace.Branch{}
	for i := 0; i < 200; i++ {
		branches = append(branches, trace.Branch{PC: 0x40 + uint64(i%5)*4, Taken: i%2 == 0, Kind: trace.Conditional})
		if i%10 == 0 {
			branches = append(branches, trace.Branch{PC: 0x99, Taken: true, Kind: trace.Unconditional})
		}
	}
	want, err := sim.RunBranches(branches, predictor.MustParseSpec("gshare:n=7,k=5"), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}

	wire := func(bs []trace.Branch) string {
		rows := make([]string, len(bs))
		for i, b := range bs {
			rows[i] = fmt.Sprintf(`{"pc":%d,"taken":%t,"uncond":%t}`, b.PC, b.Taken, b.Kind == trace.Unconditional)
		}
		return "[" + strings.Join(rows, ",") + "]"
	}

	// Stream in two batches against one session (kernel path).
	half := len(branches) / 2
	body1 := fmt.Sprintf(`{"session":"s1","spec":"gshare:n=7,k=5","branches":%s}`, wire(branches[:half]))
	status, out, _ := postJSON(t, ts.URL+"/v1/predict", body1)
	if status != http.StatusOK {
		t.Fatalf("batch 1 status %d: %s", status, out)
	}
	body2 := fmt.Sprintf(`{"session":"s1","branches":%s}`, wire(branches[half:]))
	status, out, _ = postJSON(t, ts.URL+"/v1/predict", body2)
	if status != http.StatusOK {
		t.Fatalf("batch 2 status %d: %s", status, out)
	}
	var resp api.PredictResponse
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TotalConditionals != want.Conditionals || resp.TotalMispredicts != want.Mispredicts {
		t.Errorf("session totals cond=%d mispred=%d, want cond=%d mispred=%d (library run)",
			resp.TotalConditionals, resp.TotalMispredicts, want.Conditionals, want.Mispredicts)
	}
	if resp.Spec != "gshare:n=7,k=5,ctr=2" {
		t.Errorf("session spec %q not canonical", resp.Spec)
	}

	// A parallel session with the generic path and per-branch
	// predictions must agree exactly (kernel vs generic bit-identity).
	body3 := fmt.Sprintf(`{"session":"s2","spec":"gshare:n=7,k=5","branches":%s,"return_predictions":true}`, wire(branches))
	status, out, _ = postJSON(t, ts.URL+"/v1/predict", body3)
	if status != http.StatusOK {
		t.Fatalf("generic path status %d: %s", status, out)
	}
	var resp2 api.PredictResponse
	if err := json.Unmarshal([]byte(out), &resp2); err != nil {
		t.Fatal(err)
	}
	if resp2.TotalMispredicts != want.Mispredicts {
		t.Errorf("generic path mispredicts %d, want %d", resp2.TotalMispredicts, want.Mispredicts)
	}
	if len(resp2.Predictions) != want.Conditionals {
		t.Errorf("predictions length %d, want %d", len(resp2.Predictions), want.Conditionals)
	}

	// Spec conflict on a live session.
	status, body, _ := postJSON(t, ts.URL+"/v1/predict", `{"session":"s1","spec":"bimodal:n=8","branches":[]}`)
	if status != http.StatusConflict {
		t.Errorf("re-pinning a session: status %d, want 409", status)
	}
	wantCode(t, "session conflict", body, api.CodeSessionConflict)
	// Unknown session without a spec.
	status, body, _ = postJSON(t, ts.URL+"/v1/predict", `{"session":"ghost","branches":[]}`)
	if status != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", status)
	}
	wantCode(t, "unknown session", body, api.CodeNoSuchSession)

	// End a session through the typed client; a second delete surfaces
	// the stable code as a typed error.
	c, _ := testClient(t, ts.URL)
	ended, err := c.EndSession(context.Background(), "s1")
	if err != nil {
		t.Fatalf("end session: %v", err)
	}
	if ended.Session != "s1" || ended.Status != "ended" {
		t.Errorf("end session response %+v", ended)
	}
	if _, err := c.EndSession(context.Background(), "s1"); !api.IsCode(err, api.CodeNoSuchSession) {
		t.Errorf("double delete error %v, want code %s", err, api.CodeNoSuchSession)
	}
}

func TestSessionEvictionBeyondCapacity(t *testing.T) {
	ts := newTestServer(t, Config{MaxSessions: 2})
	mk := func(id string) {
		t.Helper()
		status, out, _ := postJSON(t, ts.URL+"/v1/predict",
			fmt.Sprintf(`{"session":%q,"spec":"bimodal:n=6","branches":[{"pc":64,"taken":true}]}`, id))
		if status != http.StatusOK {
			t.Fatalf("session %s: status %d: %s", id, status, out)
		}
	}
	mk("a")
	time.Sleep(2 * time.Millisecond) // order lastUsed distinctly
	mk("b")
	time.Sleep(2 * time.Millisecond)
	mk("c") // evicts a
	status, _, _ := postJSON(t, ts.URL+"/v1/predict", `{"session":"a","branches":[]}`)
	if status != http.StatusNotFound {
		t.Errorf("evicted session still live: status %d, want 404", status)
	}
	status, _, _ = postJSON(t, ts.URL+"/v1/predict", `{"session":"b","branches":[]}`)
	if status != http.StatusOK {
		t.Errorf("recently used session evicted: status %d", status)
	}
}

func TestSpecsEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	status, body := getJSON(t, ts.URL+"/v1/specs")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var resp struct {
		Families []struct {
			Family  string   `json:"family"`
			Keys    []string `json:"keys"`
			Example string   `json:"example"`
		} `json:"families"`
		Benchmarks    []string `json:"benchmarks"`
		SchemaVersion int      `json:"schema_version"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Families) != len(predictor.Families()) {
		t.Errorf("families %d, want %d", len(resp.Families), len(predictor.Families()))
	}
	for _, f := range resp.Families {
		if f.Example == "" || len(f.Keys) == 0 {
			t.Errorf("family %s underdocumented: %+v", f.Family, f)
			continue
		}
		// Every example must parse and round-trip canonically.
		sp, err := predictor.ParseSpec(f.Example)
		if err != nil {
			t.Errorf("family %s example %q does not parse: %v", f.Family, f.Example, err)
			continue
		}
		if sp.String() != f.Example {
			t.Errorf("family %s example %q not canonical (canonical: %s)", f.Family, f.Example, sp)
		}
		if _, err := sp.New(); err != nil {
			t.Errorf("family %s example %q does not build: %v", f.Family, f.Example, err)
		}
	}
	if len(resp.Benchmarks) != len(workload.Names()) {
		t.Errorf("benchmarks %v", resp.Benchmarks)
	}
	if resp.SchemaVersion != store.SchemaVersion {
		t.Errorf("schema_version %d, want %d", resp.SchemaVersion, store.SchemaVersion)
	}
}

// TestSpecsEndpointListsModernFamilies pins the tagged and neural
// families into the discovery document: both must be listed with
// their full key grammar and a canonical example.
func TestSpecsEndpointListsModernFamilies(t *testing.T) {
	ts := newTestServer(t, Config{})
	_, body := getJSON(t, ts.URL+"/v1/specs")
	var resp struct {
		Families []struct {
			Family  string   `json:"family"`
			Keys    []string `json:"keys"`
			Example string   `json:"example"`
		} `json:"families"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	wantKeys := map[string][]string{
		"tage":       {"ctr", "k", "kmin", "n", "tables", "tag"},
		"perceptron": {"ctr", "k", "n", "tables", "theta"},
	}
	found := map[string]bool{}
	for _, f := range resp.Families {
		want, ok := wantKeys[f.Family]
		if !ok {
			continue
		}
		found[f.Family] = true
		keys := append([]string(nil), f.Keys...)
		sort.Strings(keys)
		if fmt.Sprint(keys) != fmt.Sprint(want) {
			t.Errorf("family %s keys %v, want %v", f.Family, keys, want)
		}
		if !strings.HasPrefix(f.Example, f.Family+":") {
			t.Errorf("family %s example %q", f.Family, f.Example)
		}
	}
	for fam := range wantKeys {
		if !found[fam] {
			t.Errorf("/v1/specs does not list family %q", fam)
		}
	}
}

// TestSimulateModernFamiliesCached sweeps a mixed grid of classic and
// modern families: the cold and cached responses must be
// byte-identical and the second pass must be all hits.
func TestSimulateModernFamiliesCached(t *testing.T) {
	ts := newTestServer(t, Config{})
	const mixed = `{"specs":["gskewed:n=7,k=5","tage:n=7,k=16,kmin=2,tables=4,tag=7","perceptron:n=7,k=12,tables=4"],"bench":"verilog","scale":0.002}`
	status, cold, h1 := postJSON(t, ts.URL+"/v1/simulate", mixed)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, cold)
	}
	_, warm, h2 := postJSON(t, ts.URL+"/v1/simulate", mixed)
	if cold != warm {
		t.Errorf("cold and cached bodies differ:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
	}
	if got := h1.Get("X-Cache"); got != "hits=0 misses=3" {
		t.Errorf("cold X-Cache = %q", got)
	}
	if got := h2.Get("X-Cache"); got != "hits=3 misses=0" {
		t.Errorf("warm X-Cache = %q", got)
	}
	// The results must match direct library runs of the same cells.
	var resp struct {
		Results []struct {
			Spec   string     `json:"spec"`
			Result sim.Result `json:"result"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(cold), &resp); err != nil {
		t.Fatal(err)
	}
	spec, err := workload.ByName("verilog")
	if err != nil {
		t.Fatal(err)
	}
	branches, err := workload.Materialize(spec, workload.Config{Scale: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Results {
		want, err := sim.RunBranches(branches, predictor.MustParseSpec(r.Spec), sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Result != want {
			t.Errorf("result %d (%s) = %+v, want %+v (direct run)", i, r.Spec, r.Result, want)
		}
	}
}

// TestSimulateRejectsMalformedModernSpecs: malformed tage/perceptron
// specs must fail with 400 and an error that names the problem, not a
// bare status.
func TestSimulateRejectsMalformedModernSpecs(t *testing.T) {
	ts := newTestServer(t, Config{})
	for name, tc := range map[string]struct {
		spec string
		want string // substring the error must contain
	}{
		"unknown key":      {"tage:banks=3", `"banks"`},
		"bad value":        {"tage:n=9,k=twenty", "k"},
		"out of range":     {"tage:n=99", "n="},
		"perceptron key":   {"perceptron:kmin=2", `"kmin"`},
		"perceptron range": {"perceptron:n=9,tables=1", "tables"},
	} {
		body := fmt.Sprintf(`{"specs":[%q],"bench":"verilog","scale":0.002}`, tc.spec)
		status, out, _ := postJSON(t, ts.URL+"/v1/simulate", body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, status, out)
			continue
		}
		var env api.ErrorEnvelope
		if err := json.Unmarshal([]byte(out), &env); err != nil || env.Error.Code != api.CodeBadSpec {
			t.Errorf("%s: error body not a bad_spec envelope: %s", name, out)
			continue
		}
		if !strings.Contains(env.Error.Message, tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, env.Error.Message, tc.want)
		}
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	ts := newTestServer(t, Config{})
	status, body := getJSON(t, ts.URL+"/healthz")
	if status != http.StatusOK || !strings.Contains(body, `"status": "ok"`) {
		t.Errorf("healthz %d: %s", status, body)
	}
	// /v1/health is the primary path; /healthz must be a byte-identical
	// alias of it.
	status, vbody := getJSON(t, ts.URL+"/v1/health")
	if status != http.StatusOK {
		t.Fatalf("/v1/health status %d", status)
	}
	var h api.Health
	if err := json.Unmarshal([]byte(vbody), &h); err != nil {
		t.Fatalf("/v1/health not decodable: %v\n%s", err, vbody)
	}
	if h.Status != "ok" || h.Pool.MemSegments < 0 {
		t.Errorf("standalone health detail: %+v", h)
	}
	status, body = getJSON(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	var snap map[string]any
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	for _, key := range []string{"server.requests", "server.simulate.cache_hits", "store.mem_hits", "sim.steps"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
}

func TestSchedTimeoutReturns503(t *testing.T) {
	// Width-1 scheduler whose only slot is held by the test: every
	// simulate request must time out waiting and fail with 503.
	sched := experiments.NewSched(1)
	if err := sched.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sched.Release()
	ts := newTestServer(t, Config{Sched: sched, SimTimeout: 50 * time.Millisecond})
	status, body, _ := postJSON(t, ts.URL+"/v1/simulate", sweepBody)
	if status != http.StatusServiceUnavailable {
		t.Errorf("saturated scheduler: status %d, want 503 (%s)", status, body)
	}
	wantCode(t, "queue full", body, api.CodeQueueFull)
}

// TestLatencyBucketsMicroseconds: server.latency_us resolves the
// sub-millisecond requests a cached read makes — 240 µs lands in the
// (100, 250] bucket, not in a catch-all first one.
func TestLatencyBucketsMicroseconds(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	bounds := latencyBoundsUS
	bucket := -1
	for i := 1; i < len(bounds); i++ {
		if bounds[i-1] == 100 && bounds[i] == 250 {
			bucket = i
		}
	}
	if bucket < 0 {
		t.Fatalf("server.latency_us bounds %v have no (100, 250] bucket", bounds)
	}
	before := mLatencyUS.Buckets()
	observeLatency(240 * time.Microsecond)
	after := mLatencyUS.Buckets()
	for i := range after {
		want := before[i]
		if i == bucket {
			want++
		}
		if after[i] != want {
			t.Errorf("bucket %d: %d observations, want %d", i, after[i], want)
		}
	}
}
