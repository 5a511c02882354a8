// Package algotrace records the branch behaviour of real, executing Go
// algorithms into genuine trace.Branch streams.
//
// Every workload elsewhere in the repository is synthetic: the
// internal/workload generators draw branch outcomes from tuned random
// processes. This package closes the gap to real programs the way the
// Nicaud/Pivoteau/Vialette analysis of Morris-Pratt and
// Knuth-Morris-Pratt does (arXiv 2503.13694): instrumented
// implementations of classic algorithms — MP/KMP string matching,
// binary search, insertion/quick/heap sort, linear max-scanning — run
// on parameterized random inputs, and every conditional branch they
// execute is recorded through an explicit Recorder. The recorded
// streams are ordinary traces: they flow through the codecs, the trace
// pool, the HTTP service and every simulation path unchanged.
//
// Crucially, the MP/KMP streams come with an external analytic oracle:
// analytic.go re-derives the paper's Markov-chain analysis of expected
// misprediction rates under first-order (per-site saturating-counter)
// predictors, sharing no code with either the instrumented algorithms
// or internal/predictor. Simulating a recorded stream must reproduce
// the analytic rate — a validation axis entirely independent of
// internal/refmodel.
package algotrace

import (
	"fmt"

	"gskew/internal/rng"
	"gskew/internal/trace"
)

// SiteID is the stable synthetic PC of one branch site in an
// instrumented algorithm. It is assigned by Program.Site and used
// directly as the word address of every Branch the site records, so a
// site's dynamic outcomes form one substream per PC exactly as a real
// program's compiled branch instruction would.
type SiteID uint64

// PC returns the site's word address.
func (s SiteID) PC() uint64 { return uint64(s) }

// programRegion computes the base word address of a program's site
// block. Each instrumented program owns a 256-word region inside a
// dedicated "algorithm text segment" placed above the synthetic user
// images (which start at 1<<24) and below kernel text (1<<31): the
// region index is a splitmix64 hash of the program name, so bases are
// stable across runs, processes and platforms — the property that
// makes recorded streams content-addressable.
func programRegion(name string) uint64 {
	const (
		segmentBase = uint64(1) << 28
		regionWords = 256
		regionMask  = (uint64(1) << 20) - 1 // 1M regions
	)
	h := rng.Mix64(uint64(len(name)))
	for _, b := range []byte(name) {
		h = rng.Mix64(h ^ uint64(b))
	}
	return segmentBase + (h&regionMask)*regionWords
}

// Program is a registry of branch sites for one instrumented
// algorithm. Sites are assigned consecutive word addresses in the
// program's region in declaration order, so the assignment is
// deterministic, injective and stable: the same program declares the
// same PCs in every run.
type Program struct {
	name  string
	base  uint64
	count int
	names map[string]SiteID
}

// NewProgram starts a site registry for the named algorithm.
func NewProgram(name string) *Program {
	return &Program{name: name, base: programRegion(name), names: make(map[string]SiteID)}
}

// Name returns the program name.
func (p *Program) Name() string { return p.name }

// Site registers a branch site and returns its stable PC. Registering
// the same label twice panics: a label collision would silently merge
// two sites' substreams, which is exactly the fault class the
// recorder-site-collision selftest arm exists to catch.
func (p *Program) Site(label string) SiteID {
	if _, dup := p.names[label]; dup {
		panic(fmt.Sprintf("algotrace: program %q declares site %q twice", p.name, label))
	}
	if p.count >= 256 {
		panic(fmt.Sprintf("algotrace: program %q exceeds its 256-site region", p.name))
	}
	id := SiteID(p.base + uint64(p.count))
	p.count++
	p.names[label] = id
	return id
}

// Recorder accumulates the dynamic branch stream of an instrumented
// run. The zero value (and NewRecorder) records without limit, the
// form Record returns; NewBlockRecorder instead hands the stream to a
// sink in fixed-size blocks as it is recorded, so it never exists
// whole. Both forms share one Branch/Jump path.
type Recorder struct {
	branches []trace.Branch

	// limit is the block length at which Branch and Jump hand the
	// buffer to sink. Zero, the unlimited form, is never reached: the
	// buffer holds at least one record after an append.
	limit int
	sink  func([]trace.Branch) error
	err   error // the first error sink returned

	// collideSites is the planted selftest fault: when set, every
	// site's low PC bit is dropped, mapping adjacent site pairs onto
	// one PC. The recorded directions are untouched, so the tampered
	// stream still decodes, simulates and summarises plausibly — it is
	// caught only by its content hash diverging from the clean
	// recording (and by the static-site count collapsing). It is
	// applied as records are handed out (Branches, each sink block),
	// keeping Branch and Jump small enough to inline.
	collideSites bool
}

// NewRecorder returns an empty recorder without a block limit.
func NewRecorder() *Recorder { return &Recorder{} }

// NewBlockRecorder returns a recorder that hands every limit records
// to sink as soon as they are recorded, then reuses the block's memory
// for the next ones, so a block is valid only during the sink call.
// Once sink returns an error, no further block is handed over: later
// records are dropped and Close returns that error. Close hands over
// the last, partial block.
func NewBlockRecorder(limit int, sink func([]trace.Branch) error) *Recorder {
	if limit < 1 {
		panic(fmt.Sprintf("algotrace: block limit %d < 1", limit))
	}
	return &Recorder{branches: make([]trace.Branch, 0, limit), limit: limit, sink: sink}
}

// Grow pre-allocates capacity for n further branch records. A block
// recorder's buffer is already its full block, so Grow leaves it be.
func (r *Recorder) Grow(n int) {
	if r.sink == nil && cap(r.branches)-len(r.branches) < n {
		grown := make([]trace.Branch, len(r.branches), len(r.branches)+n)
		copy(grown, r.branches)
		r.branches = grown
	}
}

// Branch records one conditional branch outcome at a site and returns
// taken, so instrumented code wraps its real conditions in place:
//
//	for rec.Branch(outer, i < n) { ... }
//	if rec.Branch(cmp, a[mid] < q) { ... }
//
// The branch recorded IS the branch decided on; the stream cannot
// drift from the control flow that produced it. Taken means the
// condition held (the convention the analytic side model shares).
func (r *Recorder) Branch(s SiteID, taken bool) bool {
	// Kind is left zero, trace.Conditional: spelling it out costs two
	// units of inlining budget, and Branch would no longer inline.
	r.branches = append(r.branches, trace.Branch{PC: uint64(s), Taken: taken})
	if len(r.branches) == r.limit {
		r.flush()
	}
	return taken
}

// Jump records one unconditional control transfer (a call, return or
// goto) at a site. Unconditional events are always taken; they shift
// global history in the simulator but are excluded from prediction
// accounting, mirroring how the synthetic workloads use them.
func (r *Recorder) Jump(s SiteID) {
	r.branches = append(r.branches, trace.Branch{PC: uint64(s), Taken: true, Kind: trace.Unconditional})
	if len(r.branches) == r.limit {
		r.flush()
	}
}

// flush hands the full block to the sink, unless the sink has already
// failed, and empties it.
func (r *Recorder) flush() {
	if r.err == nil {
		r.err = r.sink(r.out())
	}
	r.branches = r.branches[:0]
}

// Close hands a block recorder's last, partial block to the sink and
// returns the first error the sink returned. It is a no-op returning
// nil for an unlimited recorder.
func (r *Recorder) Close() error {
	if r.sink != nil && len(r.branches) > 0 {
		r.flush()
	}
	return r.err
}

// out returns the buffered records with the planted site collision
// applied when armed (dropping the low PC bit is idempotent).
func (r *Recorder) out() []trace.Branch {
	if r.collideSites {
		for i := range r.branches {
			r.branches[i].PC &^= 1
		}
	}
	return r.branches
}

// Len returns the number of buffered events: every recorded event for
// an unlimited recorder, the current block's for a block recorder.
func (r *Recorder) Len() int { return len(r.branches) }

// Branches returns the recorded stream. The slice is owned by the
// recorder; callers that keep recording afterwards should copy it.
func (r *Recorder) Branches() []trace.Branch { return r.out() }

// TamperRecorderSiteCollision arms the planted site-ID-collision fault
// on r: every record it hands out drops the low PC bit, mapping
// adjacent site pairs onto a single PC. Exported for the verification
// harness's fault-injection selftest only (cmd/verify -selftest),
// which requires the fault to be caught as a content-hash divergence
// against the clean recording.
func TamperRecorderSiteCollision(r *Recorder) { r.collideSites = true }
