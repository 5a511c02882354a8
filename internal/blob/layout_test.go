package blob_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"gskew/internal/sim"
	"gskew/internal/store"
	"gskew/internal/trace"
	"gskew/internal/tracepool"
)

// storeBlob is a result-store blob exactly as the store has always
// written it: indented JSON plus a newline, named by the key's hex.
const (
	storeBlobName = "e9bdaf138fcd4c0bb89c0ec888a6daa3a5ebebb8939887796bf240c286fc7c5a.json"
	storeBlob     = `{
  "schema": 1,
  "spec": "gshare:n=10,k=6,ctr=2",
  "trace_sha256": "7a1e",
  "options": {
    "flush_every": 1000
  },
  "storage_bits": 2048,
  "result": {
    "conditionals": 1000,
    "mispredicts": 42,
    "first_uses": 3,
    "unconditionals": 7,
    "miss_pct": 4.2
  }
}
`
)

// TestDiskLayoutCompatible writes one blob of every kind — a store
// entry, a pool segment (<hash>.ctrace) and a name record
// (names/<sha256(name)>.json) — plus a stray temp file left by an
// interrupted write, all in the existing on-disk format, then opens a
// store and a pool over the directory. Every blob must hit, and the
// temp file must be left alone.
func TestDiskLayoutCompatible(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, data string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(storeBlobName, storeBlob)

	branches := make([]trace.Branch, 300)
	for i := range branches {
		branches[i] = trace.Branch{PC: 0x4000 + uint64(i%37)*4, Taken: i%3 != 0, Kind: trace.Conditional}
	}
	seg, err := trace.EncodeColumnar(branches)
	if err != nil {
		t.Fatal(err)
	}
	hash := trace.HashBranches(branches)
	write(hash+".ctrace", string(seg))
	const name = "gcc|0.1|42"
	sum := sha256.Sum256([]byte(name))
	write(filepath.Join("names", hex.EncodeToString(sum[:])+".json"),
		`{"name":"gcc|0.1|42","trace_sha256":"`+hash+`"}`+"\n")
	const stray = "put-123.tmp"
	write(stray, "half a blob")

	st, err := store.Open(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	k := store.KeyFor("gshare:n=10,k=6,ctr=2", "7a1e", store.Options{FlushEvery: 1000})
	if k.String()+".json" != storeBlobName {
		t.Fatalf("key %s no longer names the blob %s", k, storeBlobName)
	}
	e, ok := st.Get(k)
	want := sim.Result{Conditionals: 1000, Mispredicts: 42, FirstUses: 3, Unconditionals: 7}
	if !ok || e.Result != want || e.StorageBits != 2048 {
		t.Fatalf("store blob: ok=%t entry %+v", ok, e)
	}

	pool, err := tracepool.Open(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := pool.Get(hash); !ok || trace.HashBranches(got) != hash {
		t.Fatal("pool segment missed")
	}
	pool2, err := tracepool.Open(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, got, ok := pool2.GetNamed(name); !ok || got != hash {
		t.Fatalf("name record: ok=%t hash %s, want %s", ok, got, hash)
	}

	// Writes through both faces leave the stray temp file as it was.
	if err := st.Put(e.Key(), e); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.PutNamed("other|1|0", branches); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(filepath.Join(dir, stray)); err != nil || string(data) != "half a blob" {
		t.Errorf("stray temp file changed: %q, %v", data, err)
	}
	if data, err := os.ReadFile(filepath.Join(dir, storeBlobName)); err != nil || string(data) != storeBlob {
		t.Errorf("re-put store blob differs from the existing layout:\n%s", data)
	}
}
