package blob

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gskew/internal/obs"
)

var testCounters = Counters{
	MemHits:   obs.NewCounter("blobtest.mem_hits"),
	DiskHits:  obs.NewCounter("blobtest.disk_hits"),
	Misses:    obs.NewCounter("blobtest.misses"),
	Evictions: obs.NewCounter("blobtest.evictions"),
	Drops:     obs.NewCounter("blobtest.drops"),
}

// valueFor is the only value a key may ever be served with.
func valueFor(k string) string { return "value of " + k }

var testCodec = Codec[string, string]{
	Name:   func(k string) string { return k + ".txt" },
	Encode: func(v string) ([]byte, error) { return []byte(v), nil },
	Decode: func(k string, data []byte) (string, bool) {
		return string(data), string(data) == valueFor(k)
	},
}

func TestTierMemoryAndDisk(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	dir := t.TempDir()
	tier, err := Open("blobtest", 1, dir, testCodec, testCounters)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b"} {
		if err := tier.Put(k, valueFor(k), nil); err != nil {
			t.Fatal(err)
		}
	}
	if tier.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tier.Len())
	}
	// "a" was evicted from memory; it comes back from disk.
	disk := testCounters.DiskHits.Value()
	if v, ok := tier.Get("a"); !ok || v != valueFor("a") {
		t.Fatalf(`Get("a") = %q, %t`, v, ok)
	}
	if testCounters.DiskHits.Value() != disk+1 {
		t.Error("evicted value was not read from disk")
	}
	if !tier.Contains("b") || tier.Contains("c") {
		t.Error("Contains disagrees with the disk tier")
	}

	// A blob that fails validation is a counted miss.
	if err := os.WriteFile(filepath.Join(dir, "c.txt"), []byte("forged"), 0o644); err != nil {
		t.Fatal(err)
	}
	drops := testCounters.Drops.Value()
	if _, ok := tier.Get("c"); ok {
		t.Error("forged blob served")
	}
	if testCounters.Drops.Value() != drops+1 {
		t.Error("forged blob not counted as a drop")
	}

	// data, when given, is written as it is.
	if err := tier.Put("d", valueFor("d"), []byte("raw")); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(filepath.Join(dir, "d.txt")); err != nil || string(data) != "raw" {
		t.Errorf("pre-encoded blob = %q, %v", data, err)
	}
}

// TestTierFailedWriteIsNotResident checks that a Put whose blob cannot
// be written leaves the value out of memory too, so a later Put of the
// same key retries the write instead of finding it resident.
func TestTierFailedWriteIsNotResident(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tier")
	tier, err := Open("blobtest", 2, dir, testCodec, testCounters)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := tier.Put("a", valueFor("a"), nil); err == nil || !strings.HasPrefix(err.Error(), "blobtest: ") {
		t.Fatalf("Put into a removed directory: err = %v", err)
	}
	if tier.Len() != 0 || tier.Contains("a") {
		t.Error("failed write left the value resident")
	}
}

// TestTierConcurrentGetPut races Gets and Puts over a few keys through
// a one-entry memory tier, so most Gets go to disk while other
// goroutines rename new blobs over the same files, and one goroutine
// keeps forging blobs. Every hit must carry its key's value.
func TestTierConcurrentGetPut(t *testing.T) {
	dir := t.TempDir()
	tier, err := Open("blobtest", 1, dir, testCodec, testCounters)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"k0", "k1", "k2"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := keys[(g+i)%len(keys)]
				if i%3 == 0 {
					if err := tier.Put(k, valueFor(k), nil); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if v, ok := tier.Get(k); ok && v != valueFor(k) {
					t.Errorf("Get(%q) served %q", k, v)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			k := keys[i%len(keys)]
			if err := WriteFile(filepath.Join(dir, k+".txt"), []byte(fmt.Sprintf("forged %d", i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if tier.Len() != 1 {
		t.Errorf("Len = %d, want 1", tier.Len())
	}
	if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmp) != 0 {
		t.Errorf("leftover temp files: %v", tmp)
	}
}
