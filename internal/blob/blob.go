// Package blob is the two-tier cache under the result store and the
// trace pool: a fixed-capacity LRU memory tier over an optional
// directory of one file per key. Files are written atomically (a temp
// file renamed over the final path, see WriteFile), so a concurrent
// reader sees either nothing or a complete blob, and every disk read
// is re-validated by the kind's codec, so a corrupt, stale or forged
// blob degrades to a counted miss, never to a wrong value.
//
// A Tier knows nothing of its kind: the codec names, encodes and
// decodes-and-validates values, and the kind's own obs counters are
// passed in, so each kind keeps its metric names.
package blob

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"gskew/internal/lru"
	"gskew/internal/obs"
)

// Codec is one kind's disk form.
type Codec[K comparable, V any] struct {
	// Name is the file name of k's blob, relative to the directory.
	Name func(k K) string
	// Encode serialises v.
	Encode func(v V) ([]byte, error)
	// Decode parses the blob read for k and validates it against k;
	// false drops the blob as a miss.
	Decode func(k K, data []byte) (V, bool)
}

// Counters are the kind's telemetry. Drops counts disk blobs that
// exist but cannot be trusted.
type Counters struct {
	MemHits, DiskHits, Misses, Evictions, Drops *obs.Counter
}

// Tier is the two-tier cache. It is safe for concurrent use; the
// memory tier is guarded by one mutex (map and list pokes only) and
// disk I/O happens outside it.
type Tier[K comparable, V any] struct {
	mu    sync.Mutex
	mem   *lru.Cache[K, V]
	dir   string // "" = memory-only
	kind  string // error prefix
	codec Codec[K, V]
	m     Counters
}

// Open returns a tier holding up to memEntries values in memory (must
// be positive) over the directory dir, which is created if missing;
// dir == "" selects a memory-only tier. kind prefixes error messages.
func Open[K comparable, V any](kind string, memEntries int, dir string, codec Codec[K, V], m Counters) (*Tier[K, V], error) {
	if memEntries <= 0 {
		return nil, fmt.Errorf("%s: memory tier capacity %d must be positive", kind, memEntries)
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("%s: creating %s: %w", kind, dir, err)
		}
	}
	return &Tier[K, V]{mem: lru.NewCache[K, V](memEntries), dir: dir, kind: kind, codec: codec, m: m}, nil
}

// Dir returns the disk-tier root ("" for a memory-only tier).
func (t *Tier[K, V]) Dir() string { return t.dir }

// Len returns the number of values resident in memory.
func (t *Tier[K, V]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.mem.Len()
}

// Get returns the value under k. A memory miss falls through to the
// disk tier; a blob that validates is promoted into memory.
func (t *Tier[K, V]) Get(k K) (V, bool) {
	t.mu.Lock()
	v, ok := t.mem.Get(k)
	t.mu.Unlock()
	if ok {
		t.m.MemHits.Inc()
		return v, true
	}
	if t.dir != "" {
		if v, ok = t.read(k); ok {
			t.m.DiskHits.Inc()
			t.Insert(k, v)
			return v, true
		}
	}
	t.m.Misses.Inc()
	var zero V
	return zero, false
}

// Contains reports whether k is resident or has a blob on disk,
// without reading, validating or promoting it.
func (t *Tier[K, V]) Contains(k K) bool {
	t.mu.Lock()
	_, ok := t.mem.Peek(k)
	t.mu.Unlock()
	if ok || t.dir == "" {
		return ok
	}
	_, err := os.Stat(t.path(k))
	return err == nil
}

// Insert makes v resident under k in memory only, evicting the least
// recently used value when full.
func (t *Tier[K, V]) Insert(k K, v V) {
	t.mu.Lock()
	_, evicted := t.mem.Put(k, v)
	t.mu.Unlock()
	if evicted {
		t.m.Evictions.Inc()
	}
}

// Put persists v under k when there is a disk tier, then inserts it
// into memory; a failed write leaves v out of both tiers. data, when
// non-nil, is v's encoding and is written as it is.
func (t *Tier[K, V]) Put(k K, v V, data []byte) error {
	if t.dir != "" {
		if data == nil {
			var err error
			if data, err = t.codec.Encode(v); err != nil {
				return fmt.Errorf("%s: encoding %s: %w", t.kind, t.codec.Name(k), err)
			}
		}
		if err := WriteFile(t.path(k), data); err != nil {
			return fmt.Errorf("%s: %w", t.kind, err)
		}
	}
	t.Insert(k, v)
	return nil
}

func (t *Tier[K, V]) path(k K) string { return filepath.Join(t.dir, t.codec.Name(k)) }

// read loads and validates k's blob. A missing file is a plain miss;
// any other failure is also counted as a drop.
func (t *Tier[K, V]) read(k K) (V, bool) {
	data, err := os.ReadFile(t.path(k))
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			t.m.Drops.Inc()
		}
		var zero V
		return zero, false
	}
	v, ok := t.codec.Decode(k, data)
	if !ok {
		t.m.Drops.Inc()
	}
	return v, ok
}

// WriteFile writes data to path atomically: a unique temp file
// (put-*.tmp) in path's directory, renamed over path.
func WriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "put-*.tmp")
	if err != nil {
		return fmt.Errorf("staging %s: %w", filepath.Base(path), err)
	}
	_, werr := tmp.Write(data)
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("writing %s: %w", filepath.Base(path), werr)
	}
	return nil
}
