// Package tracepool is the content-addressed trace segment pool shared
// by the result store's clients: the HTTP service (trace ingest and
// hash-addressed simulation), the experiments scheduler's trace cache,
// and any command that wants to reuse a materialised workload across
// processes.
//
// Segments are keyed by the canonical trace content hash
// (trace.HashBranches), which is serialisation-independent: the same
// branch sequence pools identically whether it arrived as a legacy
// varint file, a columnar file, or a generated workload. The pool is a
// blob.Tier, the same two-tier cache as the result store: on disk each
// segment is one block-columnar blob written atomically (temp file +
// rename), and reads re-validate content against the address: a blob
// that fails to decode, or decodes to a sequence whose hash is not its
// filename, is dropped and counted — a stale or corrupted segment
// degrades to a miss, never to a wrong trace.
//
// A small name index (one JSON blob per name, same atomic write and
// re-validate-on-read rules) maps workload identities such as
// "gcc|0.1|42" to content hashes, so schedulers can find a pooled
// segment without re-materialising the workload just to hash it.
package tracepool

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"gskew/internal/blob"
	"gskew/internal/obs"
	"gskew/internal/trace"
)

// Pool telemetry, registered in the default obs registry.
var (
	mPuts      = obs.NewCounter("tracepool.puts")
	mDedupHits = obs.NewCounter("tracepool.dedup_hits") // Put of an already-pooled segment
	counters   = blob.Counters{
		MemHits:   obs.NewCounter("tracepool.mem_hits"),
		DiskHits:  obs.NewCounter("tracepool.disk_hits"),
		Misses:    obs.NewCounter("tracepool.misses"),
		Evictions: obs.NewCounter("tracepool.evictions"),
		Drops:     obs.NewCounter("tracepool.drops"), // undecodable or hash-mismatched blobs (and name records)
	}
)

// DedupHits exposes the running count of Puts that found their segment
// already pooled (smoke tests assert on it).
func DedupHits() int64 { return mDedupHits.Value() }

// ValidHash reports whether s has the shape of a trace content hash
// (64 lowercase hex characters). Callers routing untrusted hashes into
// Get should check this first; Get itself also rejects malformed
// hashes, so they can never select a path outside the pool directory.
func ValidHash(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// codec is the disk form of a segment: columnar bytes named by the
// content hash. A blob is trusted only if it decodes to a sequence
// that hashes back to its name.
var codec = blob.Codec[string, []trace.Branch]{
	Name:   func(hash string) string { return hash + ".ctrace" },
	Encode: trace.EncodeColumnar,
	Decode: func(hash string, data []byte) ([]trace.Branch, bool) {
		branches, err := trace.DecodeBytes(data)
		return branches, err == nil && trace.HashBranches(branches) == hash
	},
}

// nameEntry is the on-disk form of one name-index record. The name is
// recorded so a read can re-validate that the blob answers the name it
// was asked for.
type nameEntry struct {
	Name      string `json:"name"`
	TraceHash string `json:"trace_sha256"`
}

// Pool is the two-tiered segment pool. It is safe for concurrent use.
type Pool struct {
	tier  *blob.Tier[string, []trace.Branch]
	mu    sync.Mutex
	names map[string]string // name -> hash (authoritative when memory-only)
}

// Open returns a pool whose memory tier holds up to memEntries decoded
// segments (must be positive — segments are whole traces, so keep this
// small) over the disk tier rooted at dir; dir == "" selects a
// memory-only pool. The directory is created if missing.
func Open(memEntries int, dir string) (*Pool, error) {
	t, err := blob.Open("tracepool", memEntries, dir, codec, counters)
	if err != nil {
		return nil, err
	}
	return &Pool{tier: t, names: make(map[string]string)}, nil
}

// Dir returns the disk-tier root ("" for a memory-only pool).
func (p *Pool) Dir() string { return p.tier.Dir() }

// Len returns the number of segments resident in the memory tier.
func (p *Pool) Len() int { return p.tier.Len() }

// Put pools a segment, returning its content hash. created reports
// whether this call added the segment; a Put whose content is already
// pooled (resident, or a disk blob that re-validates against its
// address) only refreshes recency and counts a dedup hit. A disk blob
// that fails validation is rewritten, and the Put counts as created.
// The branch slice is retained by the memory tier, so callers must not
// mutate it afterwards.
func (p *Pool) Put(branches []trace.Branch) (hash string, created bool, err error) {
	return p.PutEncoded(branches, nil)
}

// PutEncoded is Put for a segment that arrived serialised: data must
// be the bytes branches were decoded from. A columnar data becomes the
// disk blob as it is, skipping the re-encode; any other data (legacy
// varint, or nil) is encoded afresh. Either way a later Get re-validates the
// blob against its address.
func (p *Pool) PutEncoded(branches []trace.Branch, data []byte) (hash string, created bool, err error) {
	hash = trace.HashBranches(branches)
	if p.tier.Holds(hash) {
		p.tier.Insert(hash, branches)
		mDedupHits.Inc()
		return hash, false, nil
	}
	if !trace.IsColumnar(data) {
		data = nil
	}
	if err := p.tier.Put(hash, branches, data); err != nil {
		return "", false, err
	}
	mPuts.Inc()
	return hash, true, nil
}

// Get returns the pooled segment addressed by hash. A memory-tier miss
// falls through to the disk tier; a disk hit is decoded, re-validated
// against its address and promoted. Malformed hashes and untrustworthy
// blobs are misses.
func (p *Pool) Get(hash string) ([]trace.Branch, bool) {
	if !ValidHash(hash) {
		counters.Misses.Inc()
		return nil, false
	}
	return p.tier.Get(hash)
}

// Contains reports whether hash addresses a pooled segment (memory or
// disk) without decoding or promoting it. A disk blob is trusted here
// on existence alone; Get still re-validates before serving it.
func (p *Pool) Contains(hash string) bool {
	return ValidHash(hash) && p.tier.Contains(hash)
}

// PutNamed pools a segment and binds name to its content hash in the
// name index.
func (p *Pool) PutNamed(name string, branches []trace.Branch) (string, error) {
	hash, _, err := p.Put(branches)
	if err != nil {
		return "", err
	}
	if p.Dir() != "" {
		data, err := json.Marshal(nameEntry{Name: name, TraceHash: hash})
		if err != nil {
			return "", fmt.Errorf("tracepool: encoding name %q: %w", name, err)
		}
		if err := os.MkdirAll(filepath.Join(p.Dir(), "names"), 0o755); err != nil {
			return "", fmt.Errorf("tracepool: creating name index: %w", err)
		}
		if err := blob.WriteFile(p.namePath(name), append(data, '\n')); err != nil {
			return "", fmt.Errorf("tracepool: %w", err)
		}
	}
	p.mu.Lock()
	p.names[name] = hash
	p.mu.Unlock()
	return hash, nil
}

// GetNamed resolves name through the index and returns the pooled
// segment plus its content hash. An index record whose recorded name
// does not match, or whose hash no longer addresses a valid segment,
// is a miss.
func (p *Pool) GetNamed(name string) ([]trace.Branch, string, bool) {
	p.mu.Lock()
	hash, ok := p.names[name]
	p.mu.Unlock()
	if !ok {
		if p.Dir() == "" {
			return nil, "", false
		}
		data, err := os.ReadFile(p.namePath(name))
		if err != nil {
			return nil, "", false
		}
		var e nameEntry
		if err := json.Unmarshal(data, &e); err != nil || e.Name != name || !ValidHash(e.TraceHash) {
			counters.Drops.Inc()
			return nil, "", false
		}
		hash = e.TraceHash
	}
	branches, ok := p.Get(hash)
	if !ok {
		return nil, "", false
	}
	p.mu.Lock()
	p.names[name] = hash
	p.mu.Unlock()
	return branches, hash, true
}

// namePath returns the index file for a name. Names are arbitrary
// strings, so the filename is the hex SHA-256 of the name (the record
// inside carries the name for re-validation).
func (p *Pool) namePath(name string) string {
	sum := sha256.Sum256([]byte(name))
	return filepath.Join(p.Dir(), "names", hex.EncodeToString(sum[:])+".json")
}
