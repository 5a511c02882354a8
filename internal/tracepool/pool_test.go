package tracepool

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gskew/internal/obs"
	"gskew/internal/trace"
)

// genTrace builds a small deterministic branch slice.
func genTrace(seed uint64, n int) []trace.Branch {
	x := seed*0x9e3779b97f4a7c15 + 1
	out := make([]trace.Branch, n)
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = trace.Branch{PC: 0x4000 + x%512, Taken: x&4 != 0, Kind: trace.Conditional}
	}
	return out
}

func TestPoolPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p, err := Open(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	branches := genTrace(1, 5000)
	hash, created, err := p.Put(branches)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first Put reported created=false")
	}
	if hash != trace.HashBranches(branches) {
		t.Fatalf("Put hash %s, want content hash", hash)
	}
	if !ValidHash(hash) {
		t.Fatalf("Put returned malformed hash %q", hash)
	}

	got, ok := p.Get(hash)
	if !ok {
		t.Fatal("Get missed a just-pooled segment")
	}
	if trace.HashBranches(got) != hash {
		t.Fatal("Get returned a different trace")
	}

	// A fresh pool over the same directory must serve from disk and
	// re-validate successfully.
	p2, err := Open(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok = p2.Get(hash)
	if !ok {
		t.Fatal("fresh pool missed the on-disk segment")
	}
	if trace.HashBranches(got) != hash {
		t.Fatal("fresh pool returned a different trace")
	}
}

func TestPoolDedup(t *testing.T) {
	dir := t.TempDir()
	p, err := Open(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	branches := genTrace(2, 3000)
	obs.Enable()
	defer obs.Disable()
	before := DedupHits()
	h1, created1, err := p.Put(branches)
	if err != nil {
		t.Fatal(err)
	}
	h2, created2, err := p.Put(branches)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("hashes differ: %s vs %s", h1, h2)
	}
	if !created1 || created2 {
		t.Fatalf("created flags = %t, %t; want true, false", created1, created2)
	}
	if got := DedupHits() - before; got != 1 {
		t.Fatalf("dedup counter moved by %d, want 1", got)
	}
	blobs, err := filepath.Glob(filepath.Join(dir, "*.ctrace"))
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 1 {
		t.Fatalf("%d blobs on disk after duplicate Put, want 1", len(blobs))
	}

	// A second process (fresh pool, empty memory tier) must also dedup
	// against the existing disk blob.
	p2, err := Open(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, created, err := p2.Put(branches); err != nil || created {
		t.Fatalf("cross-process Put: created=%t err=%v, want false nil", created, err)
	}
}

// TestPoolStaleBlob: a blob whose content no longer matches its
// address must degrade to a miss, never serve the wrong trace.
func TestPoolStaleBlob(t *testing.T) {
	dir := t.TempDir()
	p, err := Open(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	branches := genTrace(3, 2000)
	hash, _, err := p.Put(branches)
	if err != nil {
		t.Fatal(err)
	}

	// Overwrite the blob with a validly-encoded but different trace,
	// then read through a fresh pool (no memory-tier copy).
	other, err := trace.EncodeColumnar(genTrace(99, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, hash+".ctrace"), other, 0o644); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p2.Get(hash); ok {
		t.Fatal("Get served a blob whose content does not hash to its address")
	}

	// Truncated blob: also a miss.
	if err := os.WriteFile(filepath.Join(dir, hash+".ctrace"), other[:len(other)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	p3, err := Open(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p3.Get(hash); ok {
		t.Fatal("Get served a truncated blob")
	}
}

// TestPoolPutRepairsCorruptBlob: a Put whose disk blob is corrupt
// must not dedup against it. It rewrites the blob and reports created,
// so a fresh pool over the directory serves the segment.
func TestPoolPutRepairsCorruptBlob(t *testing.T) {
	dir := t.TempDir()
	branches := genTrace(4, 2500)
	hash := trace.HashBranches(branches)
	if err := os.WriteFile(filepath.Join(dir, hash+".ctrace"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := Open(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	obs.Enable()
	defer obs.Disable()
	before := DedupHits()
	got, created, err := p.Put(branches)
	if err != nil {
		t.Fatal(err)
	}
	if got != hash || !created {
		t.Fatalf("Put over a corrupt blob = %s, created=%t; want %s, true", got, created, hash)
	}
	if n := DedupHits() - before; n != 0 {
		t.Fatalf("Put over a corrupt blob counted %d dedup hits, want 0", n)
	}
	p2, err := Open(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	if seg, ok := p2.Get(hash); !ok || trace.HashBranches(seg) != hash {
		t.Fatalf("fresh pool Get after the repairing Put: ok=%t", ok)
	}
}

func TestPoolNamedIndex(t *testing.T) {
	dir := t.TempDir()
	p, err := Open(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	branches := genTrace(4, 1000)
	const name = "gcc|0.1|42"
	hash, err := p.PutNamed(name, branches)
	if err != nil {
		t.Fatal(err)
	}
	got, gotHash, ok := p.GetNamed(name)
	if !ok || gotHash != hash {
		t.Fatalf("GetNamed = ok=%t hash=%s, want true %s", ok, gotHash, hash)
	}
	if trace.HashBranches(got) != hash {
		t.Fatal("GetNamed returned a different trace")
	}

	// Cross-process: resolve the name from disk.
	p2, err := Open(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, gotHash, ok := p2.GetNamed(name); !ok || gotHash != hash {
		t.Fatalf("fresh pool GetNamed = ok=%t hash=%s, want true %s", ok, gotHash, hash)
	}
	if _, _, ok := p2.GetNamed("no|such|workload"); ok {
		t.Fatal("GetNamed hit an unbound name")
	}

	// An index record answering the wrong name is a miss (the filename
	// collided or the file was moved): rewrite one under another name's
	// path.
	data, err := os.ReadFile(p.namePath(name))
	if err != nil {
		t.Fatal(err)
	}
	const stolen = "verilog|0.1|7"
	if err := os.WriteFile(p.namePath(stolen), data, 0o644); err != nil {
		t.Fatal(err)
	}
	p3, err := Open(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := p3.GetNamed(stolen); ok {
		t.Fatal("GetNamed trusted an index record recorded for a different name")
	}
}

func TestPoolMemoryOnly(t *testing.T) {
	p, err := Open(2, "")
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := genTrace(10, 100), genTrace(11, 100), genTrace(12, 100)
	ha, _, _ := p.Put(a)
	if _, ok := p.Get(ha); !ok {
		t.Fatal("memory-only Get missed")
	}
	if _, err := p.PutNamed("w", a); err != nil {
		t.Fatal(err)
	}
	if _, hash, ok := p.GetNamed("w"); !ok || hash != ha {
		t.Fatal("memory-only GetNamed missed")
	}
	// Capacity 2: pooling two more evicts the first, and with no disk
	// tier that segment is gone.
	p.Put(b)
	p.Put(c)
	if _, ok := p.Get(ha); ok {
		t.Fatal("memory-only pool served an evicted segment")
	}
}

func TestPoolRejectsBadHash(t *testing.T) {
	p, err := Open(2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{
		"", "abc",
		strings.Repeat("g", 64),       // not hex
		strings.Repeat("A", 64),       // uppercase
		"../../etc/passwd",            // traversal shape
		strings.Repeat("0", 63) + "/", // slash
	} {
		if _, ok := p.Get(h); ok {
			t.Errorf("Get(%q) hit", h)
		}
		if p.Contains(h) {
			t.Errorf("Contains(%q) true", h)
		}
	}
}
