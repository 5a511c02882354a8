// Package tracepool is the content-addressed trace segment pool shared
// by the result store's clients: the HTTP service (trace ingest and
// hash-addressed simulation), the experiments scheduler's trace cache,
// and any command that wants to reuse a materialised workload across
// processes.
//
// Segments are keyed by the canonical trace content hash
// (trace.HashBranches), which is serialisation-independent: the same
// branch sequence pools identically whether it arrived as a legacy
// varint file, a columnar file, or a generated workload. On disk each segment
// is one block-columnar blob written atomically (temp file + rename).
// Following the result store's discipline, reads re-validate content
// against the address: a blob that fails to decode, or decodes to a
// sequence whose hash is not its filename, is dropped and counted —
// a stale or corrupted segment degrades to a miss, never to a wrong
// trace.
//
// A small name index (one JSON blob per name, same atomic write and
// re-validate-on-read rules) maps workload identities such as
// "gcc|0.1|42" to content hashes, so schedulers can find a pooled
// segment without re-materialising the workload just to hash it.
package tracepool

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"gskew/internal/lru"
	"gskew/internal/obs"
	"gskew/internal/trace"
)

// Pool telemetry, registered in the default obs registry.
var (
	mMemHits   = obs.NewCounter("tracepool.mem_hits")
	mDiskHits  = obs.NewCounter("tracepool.disk_hits")
	mMisses    = obs.NewCounter("tracepool.misses")
	mPuts      = obs.NewCounter("tracepool.puts")
	mDedupHits = obs.NewCounter("tracepool.dedup_hits") // Put of an already-pooled segment
	mDrops     = obs.NewCounter("tracepool.drops")      // undecodable or hash-mismatched blobs
	mEvictions = obs.NewCounter("tracepool.evictions")
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

// prefix returns the truncated hash form used as the in-memory recency
// key. hash must be valid hex (callers check first).
func prefix(hash string) uint64 {
	var b [8]byte
	hex.Decode(b[:], []byte(hash[:16]))
	return binary.LittleEndian.Uint64(b[:])
}

// memSlot is one resident segment. The full hash is kept so a
// truncated-prefix collision is detected and treated as a miss.
type memSlot struct {
	hash     string
	branches []trace.Branch
}

// nameEntry is the on-disk form of one name-index record. The name is
// recorded so a read can re-validate that the blob answers the name it
// was asked for.
type nameEntry struct {
	Name      string `json:"name"`
	TraceHash string `json:"trace_sha256"`
}

// Pool is the two-tiered segment pool. It is safe for concurrent use;
// the memory tier is guarded by one mutex and disk I/O happens outside
// it.
type Pool struct {
	mu    sync.Mutex
	rec   *lru.Set           // recency over hash prefixes
	mem   map[uint64]memSlot // prefix -> resident segment
	names map[string]string  // name -> hash (authoritative when memory-only)
	dir   string             // "" = memory-only
}

// Open returns a pool whose memory tier holds up to memEntries decoded
// segments (must be positive — segments are whole traces, so keep this
// small) over the disk tier rooted at dir; dir == "" selects a
// memory-only pool. The directory is created if missing.
func Open(memEntries int, dir string) (*Pool, error) {
	if memEntries <= 0 {
		return nil, fmt.Errorf("tracepool: memory tier capacity %d must be positive", memEntries)
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("tracepool: creating %s: %w", dir, err)
		}
	}
	return &Pool{
		rec:   lru.NewSet(memEntries),
		mem:   make(map[uint64]memSlot, memEntries),
		names: make(map[string]string),
		dir:   dir,
	}, nil
}

// Dir returns the disk-tier root ("" for a memory-only pool).
func (p *Pool) Dir() string { return p.dir }

// Len returns the number of segments resident in the memory tier.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rec.Len()
}

// Put pools a segment, returning its content hash. created reports
// whether this call added the segment; a Put whose content is already
// pooled (memory or disk) only refreshes recency and counts a dedup
// hit. The branch slice is retained by the memory tier, so callers
// must not mutate it afterwards.
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
	if p.resident(hash) || p.onDisk(hash) {
		p.insertMem(hash, branches)
		mDedupHits.Inc()
		return hash, false, nil
	}
	if p.dir != "" {
		if !trace.IsColumnar(data) {
			if data, err = trace.EncodeColumnar(branches); err != nil {
				return "", false, fmt.Errorf("tracepool: encoding %s: %w", hash, err)
			}
		}
		if err := p.writeBlob(p.blobPath(hash), data); err != nil {
			return "", false, err
		}
	}
	p.insertMem(hash, branches)
	mPuts.Inc()
	return hash, true, nil
}

// Get returns the pooled segment addressed by hash. A memory-tier miss
// falls through to the disk tier; a disk hit is decoded, re-validated
// against its address and promoted. Malformed hashes and untrustworthy
// blobs are misses.
func (p *Pool) Get(hash string) ([]trace.Branch, bool) {
	if !ValidHash(hash) {
		mMisses.Inc()
		return nil, false
	}
	p.mu.Lock()
	if slot, ok := p.mem[prefix(hash)]; ok && slot.hash == hash {
		p.rec.Touch(prefix(hash))
		p.mu.Unlock()
		mMemHits.Inc()
		return slot.branches, true
	}
	p.mu.Unlock()
	if p.dir == "" {
		mMisses.Inc()
		return nil, false
	}
	branches, ok := p.readBlob(hash)
	if !ok {
		mMisses.Inc()
		return nil, false
	}
	mDiskHits.Inc()
	p.insertMem(hash, branches)
	return branches, true
}

// Contains reports whether hash addresses a pooled segment (memory or
// disk) without decoding or promoting it. A disk blob is trusted here
// on existence alone; Get still re-validates before serving it.
func (p *Pool) Contains(hash string) bool {
	return ValidHash(hash) && (p.resident(hash) || p.onDisk(hash))
}

// PutNamed pools a segment and binds name to its content hash in the
// name index.
func (p *Pool) PutNamed(name string, branches []trace.Branch) (string, error) {
	hash, _, err := p.Put(branches)
	if err != nil {
		return "", err
	}
	if p.dir != "" {
		data, err := json.Marshal(nameEntry{Name: name, TraceHash: hash})
		if err != nil {
			return "", fmt.Errorf("tracepool: encoding name %q: %w", name, err)
		}
		if err := os.MkdirAll(filepath.Join(p.dir, "names"), 0o755); err != nil {
			return "", fmt.Errorf("tracepool: creating name index: %w", err)
		}
		if err := p.writeBlob(p.namePath(name), append(data, '\n')); err != nil {
			return "", err
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
		if p.dir == "" {
			return nil, "", false
		}
		data, err := os.ReadFile(p.namePath(name))
		if err != nil {
			return nil, "", false
		}
		var e nameEntry
		if err := json.Unmarshal(data, &e); err != nil || e.Name != name || !ValidHash(e.TraceHash) {
			mDrops.Inc()
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

// resident reports a memory-tier hit without promoting.
func (p *Pool) resident(hash string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	slot, ok := p.mem[prefix(hash)]
	return ok && slot.hash == hash
}

// onDisk reports whether the blob file exists.
func (p *Pool) onDisk(hash string) bool {
	if p.dir == "" {
		return false
	}
	_, err := os.Stat(p.blobPath(hash))
	return err == nil
}

// insertMem makes a segment resident, evicting the LRU one when full.
func (p *Pool) insertMem(hash string, branches []trace.Branch) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pre := prefix(hash)
	if slot, ok := p.mem[pre]; ok && slot.hash != hash {
		mEvictions.Inc()
	}
	_, evicted, didEvict := p.rec.Touch(pre)
	if didEvict {
		delete(p.mem, evicted)
		mEvictions.Inc()
	}
	p.mem[pre] = memSlot{hash: hash, branches: branches}
}

// blobPath returns the segment file for a hash.
func (p *Pool) blobPath(hash string) string {
	return filepath.Join(p.dir, hash+".ctrace")
}

// namePath returns the index file for a name. Names are arbitrary
// strings, so the filename is the hex SHA-256 of the name (the record
// inside carries the name for re-validation).
func (p *Pool) namePath(name string) string {
	sum := sha256.Sum256([]byte(name))
	return filepath.Join(p.dir, "names", hex.EncodeToString(sum[:])+".json")
}

// readBlob loads, decodes and re-validates one segment. ok is false
// for any blob that cannot be trusted: unreadable, undecodable, or
// whose decoded content does not hash back to its address.
func (p *Pool) readBlob(hash string) ([]trace.Branch, bool) {
	data, err := os.ReadFile(p.blobPath(hash))
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			mDrops.Inc()
		}
		return nil, false
	}
	branches, err := trace.DecodeBytes(data)
	if err != nil {
		mDrops.Inc()
		return nil, false
	}
	if trace.HashBranches(branches) != hash {
		mDrops.Inc()
		return nil, false
	}
	return branches, true
}

// writeBlob persists bytes atomically: a unique temp file in the pool
// directory renamed over the final path, so a concurrent reader sees
// either nothing or a complete blob.
func (p *Pool) writeBlob(path string, data []byte) error {
	tmp, err := os.CreateTemp(p.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("tracepool: staging %s: %w", filepath.Base(path), err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("tracepool: staging %s: %w", filepath.Base(path), werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("tracepool: committing %s: %w", filepath.Base(path), err)
	}
	return nil
}
