package algotrace

import (
	"math/bits"

	"gskew/internal/rng"
	"gskew/internal/trace"
)

// The instrumented algorithms. Each is an ordinary Go implementation
// whose conditional expressions are wrapped in rec.Branch in place, so
// the recorded stream is exactly the control flow executed — there is
// no separate "trace model" that could drift from the code. Every
// program declares its sites once at package init in source order;
// the resulting PCs are consecutive words in the program's region.
//
// Failure functions for MP/KMP are computed by the standard efficient
// recurrences here; the analytic side model (analytic.go) recomputes
// them by brute force, so the two agree only if both are right.

// ---------------------------------------------------------------- mp/kmp

type matchSites struct {
	call, outer, guard, cmp, match SiteID
}

func newMatchSites(name string) matchSites {
	p := NewProgram(name)
	return matchSites{
		call:  p.Site("call"),
		outer: p.Site("outer"),
		guard: p.Site("guard"),
		cmp:   p.Site("cmp"),
		match: p.Site("match"),
	}
}

var (
	mpSites  = newMatchSites("mp")
	kmpSites = newMatchSites("kmp")
)

// weakFail computes the Morris-Pratt failure table: fail[j] is the
// length of the longest proper border of pat[:j] for j >= 1, with the
// fail[0] = -1 sentinel that makes the matcher consume a character.
func weakFail(pat []byte) []int {
	m := len(pat)
	fail := make([]int, m+1)
	fail[0] = -1
	k := -1
	for j := 0; j < m; j++ {
		for k >= 0 && pat[k] != pat[j] {
			k = fail[k]
		}
		k++
		fail[j+1] = k
	}
	return fail
}

// strongFail computes the Knuth-Morris-Pratt ("strong") failure table
// over states 0..m-1: the longest border k of pat[:j] with
// pat[k] != pat[j], or the next such border transitively, or -1.
func strongFail(pat []byte) []int {
	m := len(pat)
	wf := weakFail(pat)
	kf := make([]int, m)
	kf[0] = -1
	for j := 1; j < m; j++ {
		if b := wf[j]; pat[b] != pat[j] {
			kf[j] = b
		} else {
			kf[j] = kf[wf[j]]
		}
	}
	return kf
}

// recordMatch runs the MP/KMP matcher over text, recording every
// conditional. loopFail is the table consulted on mismatch (weak for
// MP, strong for KMP); restart is the weak border of the whole
// pattern, used after a full match in both variants.
func recordMatch(rec *Recorder, s matchSites, text, pat []byte, loopFail []int, restart int) int {
	rec.Jump(s.call)
	n, m := len(text), len(pat)
	matches := 0
	j := 0
	for i := 0; rec.Branch(s.outer, i < n); i++ {
		c := text[i]
		for rec.Branch(s.guard, j >= 0) && rec.Branch(s.cmp, pat[j] != c) {
			j = loopFail[j]
		}
		j++
		if rec.Branch(s.match, j == m) {
			matches++
			j = restart
		}
	}
	return matches
}

// matchRecords returns exactly the number of records recordMatch makes
// over text, whose symbols lie in [0, sigma). The count depends on the
// data (4.5n to 5.5n on the validation streams, up to 6n+4 on an
// all-'a' text), so no bound from the spec alone fits a kept recording
// without leaving up to a quarter of it unused. The matcher's step from
// state j on symbol c is tabulated once — its next state, and its
// records: the outer test, a guard and a compare per failure step, the
// guard alone (j < 0) or the guard and the compare that end the inner
// loop, and the match test — so counting costs one table load per
// character and no data-dependent branch. A step holds its next
// state's row offset, keeping the multiply off the load chain.
func matchRecords(text, pat []byte, sigma int, loopFail []int, restart int) int {
	type step struct{ row, records int32 }
	m := len(pat)
	delta := make([]step, m*sigma)
	for j := 0; j < m; j++ {
		for c := 0; c < sigma; c++ {
			k, records := j, int32(2)
			for k >= 0 && pat[k] != byte(c) {
				k = loopFail[k]
				records += 2
			}
			if k >= 0 {
				records += 2
			} else {
				records++
			}
			if k++; k == m {
				k = restart
			}
			delta[j*sigma+c] = step{int32(k * sigma), records}
		}
	}
	count, row := 2, 0 // the call and the final outer test; state 0
	for _, c := range text {
		st := delta[row+int(c)]
		row, count = int(st.row), count+int(st.records)
	}
	return count
}

func recordStringMatch(rec *Recorder, t Spec) {
	r := rng.NewXoshiro256(t.Seed)
	pat := genPattern(r, t.M, t.Sigma, t.Pat)
	text := genText(r, t.N, t.Sigma, t.Dist, t.P)
	wf := weakFail(pat)
	sites, loopFail := mpSites, wf
	if t.Name == "kmp" {
		sites, loopFail = kmpSites, strongFail(pat)
	}
	if rec.sink == nil {
		// Record's slice: reserve it exactly. A block recorder reuses
		// one block, so it skips the counting pass.
		rec.Grow(matchRecords(text, pat, t.Sigma, loopFail, wf[t.M]))
	}
	recordMatch(rec, sites, text, pat, loopFail, wf[t.M])
}

// ---------------------------------------------------------------- binsearch

type binsearchSites struct {
	call, loop, less, inb, eq SiteID
}

var bsSites = func() binsearchSites {
	p := NewProgram("binsearch")
	return binsearchSites{
		call: p.Site("call"),
		loop: p.Site("loop"),
		less: p.Site("less"),
		inb:  p.Site("inbounds"),
		eq:   p.Site("equal"),
	}
}()

func recordBinsearch(rec *Recorder, t Spec) {
	r := rng.NewXoshiro256(t.Seed)
	a := genSortedValues(t.N)
	s := bsSites
	rec.Grow(reserve(t))
	found := 0
	for q := 0; q < t.Queries; q++ {
		// Probes land uniformly in [0, 2n): half present, half absent.
		target := r.Intn(2 * t.N)
		rec.Jump(s.call)
		lo, hi := 0, len(a)
		for rec.Branch(s.loop, lo < hi) {
			mid := int(uint(lo+hi) >> 1)
			if rec.Branch(s.less, a[mid] < target) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if rec.Branch(s.inb, lo < len(a)) && rec.Branch(s.eq, a[lo] == target) {
			found++
		}
	}
	_ = found
}

// ---------------------------------------------------------------- sorts

type insertionSites struct {
	call, outer, guard, cmp SiteID
}

var insSites = func() insertionSites {
	p := NewProgram("insertion")
	return insertionSites{
		call:  p.Site("call"),
		outer: p.Site("outer"),
		guard: p.Site("guard"),
		cmp:   p.Site("cmp"),
	}
}()

func recordInsertion(rec *Recorder, t Spec) {
	r := rng.NewXoshiro256(t.Seed)
	s := insSites
	for run := 0; run < t.Runs; run++ {
		a := genArray(r, t.N, t.Sorted)
		rec.Jump(s.call)
		for i := 1; rec.Branch(s.outer, i < len(a)); i++ {
			v := a[i]
			j := i - 1
			for rec.Branch(s.guard, j >= 0) && rec.Branch(s.cmp, a[j] > v) {
				a[j+1] = a[j]
				j--
			}
			a[j+1] = v
		}
	}
}

type quickSites struct {
	call, work, span, part, cmp SiteID
}

var qsSites = func() quickSites {
	p := NewProgram("quick")
	return quickSites{
		call: p.Site("call"),
		work: p.Site("work"),
		span: p.Site("span"),
		part: p.Site("partition"),
		cmp:  p.Site("cmp"),
	}
}()

func recordQuick(rec *Recorder, t Spec) {
	r := rng.NewXoshiro256(t.Seed)
	s := qsSites
	type span struct{ lo, hi int }
	for run := 0; run < t.Runs; run++ {
		a := genArray(r, t.N, t.Sorted)
		rec.Jump(s.call)
		stack := []span{{0, len(a) - 1}}
		for rec.Branch(s.work, len(stack) > 0) {
			sp := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			lo, hi := sp.lo, sp.hi
			if !rec.Branch(s.span, lo < hi) {
				continue
			}
			// Middle-element pivot swapped to hi: Lomuto partition
			// without the quadratic blowup on (nearly) sorted inputs.
			mid := lo + (hi-lo)/2
			a[mid], a[hi] = a[hi], a[mid]
			pivot := a[hi]
			i := lo
			for j := lo; rec.Branch(s.part, j < hi); j++ {
				if rec.Branch(s.cmp, a[j] < pivot) {
					a[i], a[j] = a[j], a[i]
					i++
				}
			}
			a[i], a[hi] = a[hi], a[i]
			stack = append(stack, span{lo, i - 1}, span{i + 1, hi})
		}
	}
}

type heapSites struct {
	call, build, sortl, child, hasright, right, swap SiteID
}

var hsSites = func() heapSites {
	p := NewProgram("heap")
	return heapSites{
		call:     p.Site("call"),
		build:    p.Site("build"),
		sortl:    p.Site("sortloop"),
		child:    p.Site("haschild"),
		hasright: p.Site("hasright"),
		right:    p.Site("rightlarger"),
		swap:     p.Site("siftswap"),
	}
}()

func recordHeap(rec *Recorder, t Spec) {
	r := rng.NewXoshiro256(t.Seed)
	s := hsSites
	for run := 0; run < t.Runs; run++ {
		a := genArray(r, t.N, t.Sorted)
		siftDown := func(root, end int) {
			for rec.Branch(s.child, 2*root+1 < end) {
				child := 2*root + 1
				if rec.Branch(s.hasright, child+1 < end) && rec.Branch(s.right, a[child+1] > a[child]) {
					child++
				}
				if rec.Branch(s.swap, a[child] > a[root]) {
					a[root], a[child] = a[child], a[root]
					root = child
				} else {
					return
				}
			}
		}
		rec.Jump(s.call)
		for i := len(a)/2 - 1; rec.Branch(s.build, i >= 0); i-- {
			siftDown(i, len(a))
		}
		for end := len(a) - 1; rec.Branch(s.sortl, end > 0); end-- {
			a[0], a[end] = a[end], a[0]
			siftDown(0, end)
		}
	}
}

// ---------------------------------------------------------------- scanmax

type scanSites struct {
	call, loop, newmax SiteID
}

var smSites = func() scanSites {
	p := NewProgram("scanmax")
	return scanSites{
		call:   p.Site("call"),
		loop:   p.Site("loop"),
		newmax: p.Site("newmax"),
	}
}()

func recordScanMax(rec *Recorder, t Spec) {
	r := rng.NewXoshiro256(t.Seed)
	s := smSites
	a := make([]int, t.N)
	rec.Grow(reserve(t))
	for run := 0; run < t.Runs; run++ {
		// A uniform permutation: the running max advances ~H_n times.
		r.Perm(a)
		rec.Jump(s.call)
		best := a[0]
		for i := 1; rec.Branch(s.loop, i < len(a)); i++ {
			if rec.Branch(s.newmax, a[i] > best) {
				best = a[i]
			}
		}
	}
}

// ---------------------------------------------------------------- dispatch

// reserve bounds the records a spec records, for the families whose
// stream length has a tight bound in the spec alone, so Record fills
// one allocation and never grows it. MP/KMP reserve their exact count
// instead (matchRecords); reserve returns 0 for them and for the
// sorts, whose length depends on the data (quicksort's worst case is
// quadratic).
//
//   - binsearch: per query the call, at most bits.Len(n) halvings of
//     two records each, the loop exit and the two bound checks.
//   - scanmax: per run the call, n loop tests and n-1 max tests.
func reserve(t Spec) int {
	switch t.Name {
	case "binsearch":
		return t.Queries * (2*bits.Len(uint(t.N)) + 4)
	case "scanmax":
		return t.Runs * 2 * t.N
	}
	return 0
}

func recordInto(t Spec, rec *Recorder) {
	switch t.Name {
	case "mp", "kmp":
		recordStringMatch(rec, t)
	case "binsearch":
		recordBinsearch(rec, t)
	case "insertion":
		recordInsertion(rec, t)
	case "quick":
		recordQuick(rec, t)
	case "heap":
		recordHeap(rec, t)
	case "scanmax":
		recordScanMax(rec, t)
	}
}

// Record executes the spec's algorithm on its seeded inputs and
// returns the recorded branch stream. The stream depends only on the
// normalized spec.
func Record(spec Spec) ([]trace.Branch, error) {
	rec := NewRecorder()
	if err := RecordInto(spec, rec); err != nil {
		return nil, err
	}
	return rec.Branches(), nil
}

// Stream is a recorded-algorithm workload as a push-side trace
// (trace.Producer): each Produce call runs the algorithm afresh and
// hands its branches over in trace.BlockLen-record blocks while it
// runs, so the stream is never held whole. Re-recording costs less
// than keeping a long stream or reading it back from a pool, which is
// why a trace read once is streamed.
//
// Stream is also a trace.Source for consumers that pull: the first
// Next or NextBatch records the whole stream once and serves it from
// memory. Produce always pushes the whole stream, whatever was pulled.
type Stream struct {
	spec   Spec
	pulled *trace.SliceSource
}

// NewStream validates spec and returns its stream; nothing is recorded
// until the stream is read.
func NewStream(spec Spec) (*Stream, error) {
	t := spec.Normalize()
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &Stream{spec: t}, nil
}

// Produce implements trace.Producer.
func (s *Stream) Produce(yield func([]trace.Branch) error) error {
	rec := NewBlockRecorder(trace.BlockLen, yield)
	recordInto(s.spec, rec)
	return rec.Close()
}

// Next implements trace.Source.
func (s *Stream) Next() (trace.Branch, error) { return s.pull().Next() }

// NextBatch implements trace.BatchSource.
func (s *Stream) NextBatch(dst []trace.Branch) (int, error) { return s.pull().NextBatch(dst) }

func (s *Stream) pull() *trace.SliceSource {
	if s.pulled == nil {
		rec := NewRecorder()
		recordInto(s.spec, rec)
		s.pulled = trace.NewSliceSource(rec.Branches())
	}
	return s.pulled
}

// RecordInto is Record against a caller-supplied recorder. It exists
// for the verification harness, which records the same spec into a
// clean and a tampered recorder and requires their content hashes to
// diverge.
func RecordInto(spec Spec, rec *Recorder) error {
	t := spec.Normalize()
	if err := t.Validate(); err != nil {
		return err
	}
	recordInto(t, rec)
	return nil
}
