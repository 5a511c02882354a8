// Package store is the content-addressed run cache behind the
// simulation service: simulation results keyed by SHA-256 of the cell
// that produced them — the canonical predictor spec string, the trace
// content hash (see trace.HashBranches) and the result-relevant subset
// of sim.Options — so any client re-running an identical (spec, trace,
// options) cell anywhere gets the stored result, bit-identical to a
// fresh simulation.
//
// The store is a blob.Tier: a fixed-capacity in-memory LRU tier in
// front of an optional on-disk tier of one JSON blob per key, written
// atomically (temp file + rename) so readers never observe a partial
// entry. Keys embed a schema version: bumping SchemaVersion — required
// whenever simulation semantics change in a result-visible way — makes
// every old entry unreachable without any deletion pass, and disk
// reads additionally validate that the entry's recorded inputs
// re-derive the key, so a corrupted or hand-edited blob degrades to a
// miss, never to a wrong result.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"gskew/internal/blob"
	"gskew/internal/obs"
	"gskew/internal/sim"
)

// SchemaVersion is mixed into every cache key. Bump it whenever a
// change anywhere in the simulation stack (kernels, runner accounting,
// predictor semantics, trace hashing) could alter the Result a cell
// produces; old entries then miss cleanly instead of serving stale
// results.
const SchemaVersion = 1

// Store telemetry, registered in the default obs registry.
var (
	mPuts    = obs.NewCounter("store.puts")
	counters = blob.Counters{
		MemHits:   obs.NewCounter("store.mem_hits"),
		DiskHits:  obs.NewCounter("store.disk_hits"),
		Misses:    obs.NewCounter("store.misses"),
		Evictions: obs.NewCounter("store.evictions"),
		Drops:     obs.NewCounter("store.disk_drops"), // unreadable/stale blobs treated as misses
	}
)

// Options is the normalized, result-relevant subset of sim.Options
// that participates in cache keys. Fields that cannot change a Result
// (NoKernel — the kernel path is bit-identical by construction — and
// Recorder, which only observes) are deliberately absent, so a client
// toggling them still hits.
type Options struct {
	SkipFirstUse bool `json:"skip_first_use,omitempty"`
	HistoryBits  uint `json:"history_bits,omitempty"`
	FlushEvery   int  `json:"flush_every,omitempty"`
}

// NormalizeOptions projects sim.Options onto its key-relevant subset.
func NormalizeOptions(o sim.Options) Options {
	return Options{
		SkipFirstUse: o.SkipFirstUse,
		HistoryBits:  o.HistoryBits,
		FlushEvery:   o.FlushEvery,
	}
}

// Sim converts the normalized options back into runnable sim.Options.
func (o Options) Sim() sim.Options {
	return sim.Options{
		SkipFirstUse: o.SkipFirstUse,
		HistoryBits:  o.HistoryBits,
		FlushEvery:   o.FlushEvery,
	}
}

// canonical renders the options in the fixed key form.
func (o Options) canonical() string {
	return fmt.Sprintf("skip_first_use=%t,history_bits=%d,flush_every=%d",
		o.SkipFirstUse, o.HistoryBits, o.FlushEvery)
}

// Key is the SHA-256 content address of one simulation cell.
type Key [sha256.Size]byte

// String returns the lowercase hex form (the on-disk file stem).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyFor derives the cache key of a cell. spec must be the canonical
// predictor spec string (predictor.Spec.String()) and traceHash the
// trace content hash; both are embedded verbatim, so two spellings of
// the same organisation share a key exactly when they normalize to the
// same canonical string.
func KeyFor(spec, traceHash string, opts Options) Key {
	h := sha256.New()
	fmt.Fprintf(h, "gskew-store/v%d|spec=%s|trace=%s|opts=%s",
		SchemaVersion, spec, traceHash, opts.canonical())
	var k Key
	h.Sum(k[:0])
	return k
}

// Entry is one cached cell: the inputs that derived its key plus the
// simulation result. Entries round-trip through JSON bit-identically
// (sim.Result has a MarshalJSON/UnmarshalJSON pair), so a response
// served from disk is byte-for-byte the response a fresh run produces.
type Entry struct {
	Schema      int        `json:"schema"`
	Spec        string     `json:"spec"`
	TraceHash   string     `json:"trace_sha256"`
	Opts        Options    `json:"options"`
	StorageBits int        `json:"storage_bits,omitempty"`
	Result      sim.Result `json:"result"`
}

// Key re-derives the entry's content address from its recorded inputs.
func (e Entry) Key() Key { return KeyFor(e.Spec, e.TraceHash, e.Opts) }

// codec is the disk form of an entry: indented JSON plus a newline,
// named by the key's hex. A blob is trusted only if it parses, carries
// the current schema and its recorded inputs re-derive its key.
var codec = blob.Codec[Key, Entry]{
	Name: func(k Key) string { return k.String() + ".json" },
	Encode: func(e Entry) ([]byte, error) {
		data, err := json.MarshalIndent(e, "", "  ")
		return append(data, '\n'), err
	},
	Decode: func(k Key, data []byte) (Entry, bool) {
		var e Entry
		if json.Unmarshal(data, &e) != nil || e.Schema != SchemaVersion || e.Key() != k {
			return Entry{}, false
		}
		return e, true
	},
}

// Store is the two-tiered cache. It is safe for concurrent use.
type Store struct {
	tier *blob.Tier[Key, Entry]
}

// Open returns a store with an in-memory tier of memEntries cells
// (must be positive) over the on-disk tier rooted at dir; dir == ""
// selects a memory-only store. The directory is created if missing.
func Open(memEntries int, dir string) (*Store, error) {
	t, err := blob.Open("store", memEntries, dir, codec, counters)
	if err != nil {
		return nil, err
	}
	return &Store{tier: t}, nil
}

// Dir returns the disk-tier root ("" for a memory-only store).
func (s *Store) Dir() string { return s.tier.Dir() }

// Len returns the number of entries resident in the memory tier.
func (s *Store) Len() int { return s.tier.Len() }

// Get returns the entry stored under k. A memory-tier miss falls
// through to the disk tier; a disk hit is promoted into the memory
// tier. Unreadable, schema-stale or key-mismatched disk blobs are
// dropped (counted, not erred): the caller simply recomputes.
func (s *Store) Get(k Key) (Entry, bool) { return s.tier.Get(k) }

// Put stores e under k, inserting into the memory tier and — when a
// disk tier is configured — persisting the blob atomically. The key
// must match the entry's content (programming error otherwise).
func (s *Store) Put(k Key, e Entry) error {
	if e.Schema == 0 {
		e.Schema = SchemaVersion
	}
	if e.Key() != k {
		return fmt.Errorf("store: key %s does not address entry (spec %q, trace %s)",
			k, e.Spec, e.TraceHash)
	}
	mPuts.Inc()
	return s.tier.Put(k, e, nil)
}
