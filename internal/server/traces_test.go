package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gskew/internal/api"
	"gskew/internal/trace"
	"gskew/internal/tracepool"
	"gskew/internal/workload"
)

// testTrace builds a small deterministic branch sequence.
func testTrace(n int) []trace.Branch {
	branches := make([]trace.Branch, 0, 2*n)
	for i := 0; i < n; i++ {
		branches = append(branches,
			trace.Branch{PC: 0x400 + uint64(i%13)*4, Taken: i%3 != 0, Kind: trace.Conditional},
			trace.Branch{PC: 0x900, Taken: true, Kind: trace.Unconditional})
	}
	return branches
}

// legacyFixture returns the committed legacy varint trace (verilog at
// scale 0.01, written before columnar became the only write format).
func legacyFixture(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile("../trace/testdata/verilog-0.01.trace")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fixtureTrace returns the committed fixture's columnar re-encoding —
// the service accepts no other format — and the records the generator
// produces for that workload.
func fixtureTrace(t *testing.T) ([]byte, []trace.Branch) {
	t.Helper()
	recs, err := trace.DecodeBytes(legacyFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := trace.EncodeColumnar(recs)
	if err != nil {
		t.Fatal(err)
	}
	branches, err := workload.MaterializeAny("verilog", workload.Config{Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	return enc, branches
}

// shortBlocks encodes branches in the columnar format with a block
// flushed every n records: valid, but not the canonical (full-block)
// layout.
func shortBlocks(t *testing.T, branches []trace.Branch, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewColumnarWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range branches {
		if err := w.Write(b); err != nil {
			t.Fatal(err)
		}
		if i%n == n-1 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postRaw uploads arbitrary bytes through the typed client's raw
// escape hatch.
func postRaw(t *testing.T, rawURL string, body []byte) (int, string) {
	t.Helper()
	c, path := testClient(t, rawURL)
	status, data, _, err := c.Do(context.Background(), http.MethodPost, path, "application/octet-stream", body)
	if err != nil {
		t.Fatal(err)
	}
	return status, string(data)
}

// getRaw fetches a path's raw bytes and headers through the typed
// client's escape hatch.
func getRaw(t *testing.T, rawURL string) (int, []byte, http.Header) {
	t.Helper()
	c, path := testClient(t, rawURL)
	status, data, hdr, err := c.Do(context.Background(), http.MethodGet, path, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	return status, data, hdr
}

func TestTraceIngestAndGet(t *testing.T) {
	ts := newTestServer(t, Config{})
	columnar, branches := fixtureTrace(t)
	wantHash := trace.HashBranches(branches)

	// Ingest the fixture's columnar re-encoding.
	status, body1 := postRaw(t, ts.URL+"/v1/traces", columnar)
	if status != http.StatusOK {
		t.Fatalf("ingest status %d: %s", status, body1)
	}
	var resp api.TraceIngestResponse
	if err := json.Unmarshal([]byte(body1), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceSHA256 != wantHash {
		t.Errorf("ingest hash %s, want %s", resp.TraceSHA256, wantHash)
	}
	if resp.Branches != len(branches) {
		t.Errorf("ingest branches %d, want %d", resp.Branches, len(branches))
	}

	// Re-ingesting the same content in another block layout must
	// return a byte-identical response: the pool is content-addressed,
	// so the layout that delivered the bytes is irrelevant.
	status, body2 := postRaw(t, ts.URL+"/v1/traces", shortBlocks(t, branches, 700))
	if status != http.StatusOK {
		t.Fatalf("re-ingest status %d: %s", status, body2)
	}
	if body1 != body2 {
		t.Errorf("repeat ingest responses differ:\n%s\n%s", body1, body2)
	}

	// GET serves the canonical columnar bytes back.
	gstatus, served, hdr := getRaw(t, ts.URL+"/v1/traces/"+wantHash)
	if gstatus != http.StatusOK {
		t.Fatalf("get status %d: %s", gstatus, served)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("content type %q", ct)
	}
	if !bytes.Equal(served, columnar) {
		t.Error("served trace bytes are not the canonical columnar encoding")
	}
	got, err := trace.DecodeBytes(served)
	if err != nil {
		t.Fatal(err)
	}
	if trace.HashBranches(got) != wantHash {
		t.Error("served trace decodes to different content")
	}
}

func TestTraceIngestRejectsGarbage(t *testing.T) {
	ts := newTestServer(t, Config{})
	legacy := legacyFixture(t)
	for name, body := range map[string][]byte{
		"empty":      nil,
		"not magic":  []byte("hello, world"),
		"truncated":  legacy[:7],
		"bad crc":    flipLastByte(t, testTrace(300)),
		"text trace": []byte("C 0x400 T\n"),
	} {
		status, out := postRaw(t, ts.URL+"/v1/traces", body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, status, out)
		}
		wantCode(t, name, out, api.CodeBadTrace)
	}
}

// flipLastByte corrupts a columnar encoding's final payload byte, which
// the block CRC must reject.
func flipLastByte(t *testing.T, branches []trace.Branch) []byte {
	t.Helper()
	enc, err := trace.EncodeColumnar(branches)
	if err != nil {
		t.Fatal(err)
	}
	enc[len(enc)-1] ^= 0xff
	return enc
}

func TestTraceGetMisses(t *testing.T) {
	ts := newTestServer(t, Config{})
	for name, hash := range map[string]string{
		"unknown":   strings.Repeat("ab", 32),
		"malformed": "not-a-hash",
		"uppercase": strings.Repeat("AB", 32),
	} {
		status, out, _ := getRaw(t, ts.URL+"/v1/traces/"+hash)
		if status != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", name, status)
		}
		wantCode(t, name, string(out), api.CodeNoSuchTrace)
	}
}

// TestSimulateByHashMatchesInline is the ingest-then-sweep contract:
// simulating by trace_sha256 must return a byte-identical body to
// inlining the same trace as trace_b64.
func TestSimulateByHashMatchesInline(t *testing.T) {
	ts := newTestServer(t, Config{})
	enc, branches := fixtureTrace(t)

	inlineBody := fmt.Sprintf(`{"specs":["gshare:n=7,k=5"],"trace_b64":%q}`, base64.StdEncoding.EncodeToString(enc))
	status, inline, _ := postJSON(t, ts.URL+"/v1/simulate", inlineBody)
	if status != http.StatusOK {
		t.Fatalf("inline status %d: %s", status, inline)
	}

	// The inline request put the trace through to the pool, so the hash
	// in its response is immediately addressable.
	hash := trace.HashBranches(branches)
	hashBody := fmt.Sprintf(`{"specs":["gshare:n=7,k=5"],"trace_sha256":%q}`, hash)
	status, byHash, _ := postJSON(t, ts.URL+"/v1/simulate", hashBody)
	if status != http.StatusOK {
		t.Fatalf("by-hash status %d: %s", status, byHash)
	}
	if inline != byHash {
		t.Errorf("inline and by-hash responses differ:\n--- inline ---\n%s--- by-hash ---\n%s", inline, byHash)
	}

	// Ingest-first is equivalent too.
	status, _ = postRaw(t, ts.URL+"/v1/traces", enc)
	if status != http.StatusOK {
		t.Fatalf("ingest status %d", status)
	}
	status, again, _ := postJSON(t, ts.URL+"/v1/simulate", hashBody)
	if status != http.StatusOK || again != inline {
		t.Errorf("post-ingest by-hash response diverged (status %d)", status)
	}
}

func TestSimulateByHashRejections(t *testing.T) {
	ts := newTestServer(t, Config{})
	for name, tc := range map[string]struct {
		body string
		want int
		code string
	}{
		"unpooled hash":  {fmt.Sprintf(`{"specs":["bimodal:n=8"],"trace_sha256":%q}`, strings.Repeat("cd", 32)), http.StatusNotFound, api.CodeNoSuchTrace},
		"malformed hash": {`{"specs":["bimodal:n=8"],"trace_sha256":"../../etc/passwd"}`, http.StatusNotFound, api.CodeNoSuchTrace},
		"hash and bench": {fmt.Sprintf(`{"specs":["bimodal:n=8"],"bench":"verilog","trace_sha256":%q}`, strings.Repeat("cd", 32)), http.StatusBadRequest, api.CodeBadWorkload},
		"all three":      {fmt.Sprintf(`{"specs":["bimodal:n=8"],"bench":"verilog","trace_b64":"aGk=","trace_sha256":%q}`, strings.Repeat("cd", 32)), http.StatusBadRequest, api.CodeBadWorkload},
	} {
		status, out, _ := postJSON(t, ts.URL+"/v1/simulate", tc.body)
		if status != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", name, status, tc.want, out)
		}
		wantCode(t, name, out, tc.code)
	}
}

// TestAlgoTraceRoundTripAndSweep: a recorded-algorithm trace behaves
// like any other content: ingest returns its content hash, GET serves
// byte-identical canonical columnar bytes, and sweep-by-hash responses
// are byte-identical cold vs cached. The server also materialises
// algo:... workloads directly through the bench parameter.
func TestAlgoTraceRoundTripAndSweep(t *testing.T) {
	ts := newTestServer(t, Config{})
	const spec = "algo:kmp,n=4000,m=6,sigma=2,pat=rand,seed=11"
	branches, err := workload.MaterializeAny(spec, workload.Config{})
	if err != nil {
		t.Fatal(err)
	}
	wantHash := trace.HashBranches(branches)
	columnar, err := trace.EncodeColumnar(branches)
	if err != nil {
		t.Fatal(err)
	}

	status, body := postRaw(t, ts.URL+"/v1/traces", columnar)
	if status != http.StatusOK {
		t.Fatalf("ingest status %d: %s", status, body)
	}
	var resp api.TraceIngestResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceSHA256 != wantHash {
		t.Errorf("ingest hash %s, want %s", resp.TraceSHA256, wantHash)
	}

	gstatus, served, _ := getRaw(t, ts.URL+"/v1/traces/"+wantHash)
	if gstatus != http.StatusOK {
		t.Fatalf("get status %d", gstatus)
	}
	if !bytes.Equal(served, columnar) {
		t.Error("served algo trace is not byte-identical to the canonical columnar encoding")
	}

	sweep := fmt.Sprintf(`{"specs":["bimodal:n=4,ctr=2","gshare:n=7,k=5"],"trace_sha256":%q}`, wantHash)
	status, cold, _ := postJSON(t, ts.URL+"/v1/simulate", sweep)
	if status != http.StatusOK {
		t.Fatalf("cold sweep status %d: %s", status, cold)
	}
	status, cached, _ := postJSON(t, ts.URL+"/v1/simulate", sweep)
	if status != http.StatusOK {
		t.Fatalf("cached sweep status %d: %s", status, cached)
	}
	if cold != cached {
		t.Errorf("sweep-by-hash responses differ cold vs cached:\n--- cold ---\n%s--- cached ---\n%s", cold, cached)
	}

	// bench="algo:..." materialises on the server and must agree with
	// the ingested stream: same content hash in the workload info.
	status, byBench, _ := postJSON(t, ts.URL+"/v1/simulate",
		fmt.Sprintf(`{"specs":["bimodal:n=4,ctr=2","gshare:n=7,k=5"],"bench":%q}`, spec))
	if status != http.StatusOK {
		t.Fatalf("bench sweep status %d: %s", status, byBench)
	}
	var benchResp struct {
		Workload struct {
			TraceSHA256 string `json:"trace_sha256"`
		} `json:"workload"`
	}
	if err := json.Unmarshal([]byte(byBench), &benchResp); err != nil {
		t.Fatal(err)
	}
	if benchResp.Workload.TraceSHA256 != wantHash {
		t.Errorf("bench materialisation hash %s, want %s — server-side recording diverged",
			benchResp.Workload.TraceSHA256, wantHash)
	}

	// Unknown algorithm name is a workload error, not a 500.
	status, bad, _ := postJSON(t, ts.URL+"/v1/simulate", `{"specs":["bimodal:n=8"],"bench":"algo:bogosort"}`)
	if status != http.StatusBadRequest {
		t.Errorf("bogus algo spec: status %d (%s), want 400", status, bad)
	}
	wantCode(t, "bogus algo", bad, api.CodeBadWorkload)
}

// TestTracePoolDiskSharing: a disk-backed pool dedups across server
// instances — a second server over the same directory serves a segment
// it never saw ingested, and repeated ingests leave exactly one blob.
func TestTracePoolDiskSharing(t *testing.T) {
	dir := t.TempDir()
	pool1, err := tracepool.Open(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := newTestServer(t, Config{Pool: pool1})
	columnar, branches := fixtureTrace(t)
	hash := trace.HashBranches(branches)

	for i := 0; i < 3; i++ {
		if status, out := postRaw(t, ts1.URL+"/v1/traces", columnar); status != http.StatusOK {
			t.Fatalf("ingest %d: status %d: %s", i, status, out)
		}
	}
	blobs, err := filepath.Glob(filepath.Join(dir, "*.ctrace"))
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 1 {
		t.Fatalf("%d blobs after 3 ingests of one trace, want 1", len(blobs))
	}
	if got := filepath.Base(blobs[0]); got != hash+".ctrace" {
		t.Errorf("blob named %s, want %s.ctrace", got, hash)
	}

	pool2, err := tracepool.Open(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := newTestServer(t, Config{Pool: pool2})
	gstatus, served, _ := getRaw(t, ts2.URL+"/v1/traces/"+hash)
	if gstatus != http.StatusOK {
		t.Fatalf("second server over shared dir: status %d", gstatus)
	}
	got, err := trace.DecodeBytes(served)
	if err != nil {
		t.Fatal(err)
	}
	if trace.HashBranches(got) != hash {
		t.Error("shared pool served different content")
	}

	// A corrupted blob degrades to a miss on a fresh pool, never to a
	// wrong trace.
	if err := os.WriteFile(blobs[0], []byte("GSKC garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	pool3, err := tracepool.Open(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	ts3 := newTestServer(t, Config{Pool: pool3})
	cstatus, _, _ := getRaw(t, ts3.URL+"/v1/traces/"+hash)
	if cstatus != http.StatusNotFound {
		t.Errorf("corrupted blob: status %d, want 404", cstatus)
	}
}

// TestBenchWorkloadsArePooled: materialising a benchmark through
// /v1/simulate write-throughs to the pool, so the workload's hash is
// addressable and a pool-sharing restart skips regeneration.
func TestBenchWorkloadsArePooled(t *testing.T) {
	dir := t.TempDir()
	pool, err := tracepool.Open(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Pool: pool})
	status, body, _ := postJSON(t, ts.URL+"/v1/simulate", `{"specs":["bimodal:n=8"],"bench":"verilog","scale":0.002}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp struct {
		Workload struct {
			TraceSHA256 string `json:"trace_sha256"`
		} `json:"workload"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if !pool.Contains(resp.Workload.TraceSHA256) {
		t.Error("benchmark materialisation not pooled")
	}
	// And it is now hash-addressable for simulation.
	status, byHash, _ := postJSON(t, ts.URL+"/v1/simulate",
		fmt.Sprintf(`{"specs":["bimodal:n=8"],"trace_sha256":%q}`, resp.Workload.TraceSHA256))
	if status != http.StatusOK {
		t.Errorf("by-hash simulate of pooled benchmark: status %d: %s", status, byHash)
	}
}

// TestTraceIngestBlobs: a columnar ingest is pooled as the uploaded
// bytes themselves (no re-encode), and GET serves the canonical
// encoding, even when the uploaded stream is laid out in short blocks
// and so differs from it.
func TestTraceIngestBlobs(t *testing.T) {
	dir := t.TempDir()
	pool, err := tracepool.Open(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Pool: pool})
	ingest := func(body []byte) string {
		t.Helper()
		status, out := postRaw(t, ts.URL+"/v1/traces", body)
		if status != http.StatusOK {
			t.Fatalf("ingest status %d: %s", status, out)
		}
		var resp api.TraceIngestResponse
		if err := json.Unmarshal([]byte(out), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.TraceSHA256
	}
	blob := func(hash string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, hash+".ctrace"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	// Columnar body in 700-record blocks.
	branches := testTrace(1500)
	body := shortBlocks(t, branches, 700)
	canonical, err := trace.EncodeColumnar(branches)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(body, canonical) {
		t.Fatal("short-block body equals the canonical encoding; the test cannot tell a re-encode apart")
	}
	hash := ingest(body)
	if hash != trace.HashBranches(branches) {
		t.Fatalf("columnar ingest hash %s, want %s", hash, trace.HashBranches(branches))
	}
	if !bytes.Equal(blob(hash), body) {
		t.Error("columnar ingest's blob is not the uploaded body")
	}
	if _, served, _ := getRaw(t, ts.URL+"/v1/traces/"+hash); !bytes.Equal(served, canonical) {
		t.Error("GET of a short-block ingest is not the canonical columnar encoding")
	}
}

// cutAtRecord cuts a legacy varint stream after its first n records
// (one uvarint each, after the 16-byte header).
func cutAtRecord(t *testing.T, data []byte, n int) []byte {
	t.Helper()
	off := 16
	for i := 0; i < n; i++ {
		_, w := binary.Uvarint(data[off:])
		if w <= 0 {
			t.Fatalf("record %d: bad uvarint at offset %d", i, off)
		}
		off += w
	}
	return data[:off:off]
}

// TestTraceUploadRefusesVarint: the legacy varint format stores no
// record count, so a body cut at a record boundary decodes as a
// shorter trace without error. Both upload routes (POST /v1/traces and
// a simulate request's trace_b64) refuse the whole fixture and such a
// cut with 400 bad_trace, naming the format, and pool nothing.
func TestTraceUploadRefusesVarint(t *testing.T) {
	legacy := legacyFixture(t)
	cut := cutAtRecord(t, legacy, 1000)
	full, err := trace.DecodeBytes(legacy)
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := trace.DecodeBytes(cut)
	if err != nil || len(prefix) != 1000 {
		t.Fatalf("cut fixture decodes to %d records (err %v), want a silent 1000-record prefix", len(prefix), err)
	}
	dir := t.TempDir()
	pool, err := tracepool.Open(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Pool: pool})
	for name, body := range map[string][]byte{"fixture": legacy, "record-boundary cut": cut} {
		status, out := postRaw(t, ts.URL+"/v1/traces", body)
		if status != http.StatusBadRequest {
			t.Errorf("%s ingest: status %d, want 400 (%s)", name, status, out)
		}
		wantCode(t, name+" ingest", out, api.CodeBadTrace)
		if !strings.Contains(out, "varint") {
			t.Errorf("%s ingest: error does not name the varint format: %s", name, out)
		}
		inline := fmt.Sprintf(`{"specs":["gshare:n=6,k=4"],"trace_b64":%q}`, base64.StdEncoding.EncodeToString(body))
		status, out, _ = postJSON(t, ts.URL+"/v1/simulate", inline)
		if status != http.StatusBadRequest {
			t.Errorf("%s inline: status %d, want 400 (%s)", name, status, out)
		}
		wantCode(t, name+" inline", out, api.CodeBadTrace)
	}
	for _, branches := range [][]trace.Branch{full, prefix} {
		if hash := trace.HashBranches(branches); pool.Contains(hash) {
			t.Errorf("refused upload pooled %s (%d records)", hash, len(branches))
		}
	}
	if blobs, _ := filepath.Glob(filepath.Join(dir, "*.ctrace")); len(blobs) != 0 {
		t.Errorf("refused uploads left %d pool blobs", len(blobs))
	}
}
