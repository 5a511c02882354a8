package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced pass. Spans of one pass (or
// one serve request) share a trace id; a span's parent is the span
// that caused it, 0 for a root.
type span struct {
	TraceID  uint64 `json:"trace_id"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Count    int64  `json:"count"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// tracer keeps spans in memory for the traced pass. It is recorded
// only by the benchmark around its calls into each layer; a nil
// *tracer records nothing, so untraced passes run the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a span in progress; its zero value (from a nil tracer)
// records nothing.
type openSpan struct {
	t                   *tracer
	traceID, id, parent uint64
	name                string
	start               time.Time
}

func (t *tracer) newID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// begin opens a root span of a new trace.
func (t *tracer) begin(name string) openSpan {
	if t == nil {
		return openSpan{}
	}
	id := t.newID()
	return openSpan{t: t, traceID: id, id: id, name: name, start: time.Now()}
}

// child opens a span caused by o.
func (o openSpan) child(name string) openSpan {
	if o.t == nil {
		return openSpan{}
	}
	return openSpan{t: o.t, traceID: o.traceID, id: o.t.newID(), parent: o.id, name: name, start: time.Now()}
}

// request opens a span caused by o that starts a trace of its own: the
// spans of one served request share its trace id.
func (o openSpan) request(name string) openSpan {
	if o.t == nil {
		return openSpan{}
	}
	id := o.t.newID()
	return openSpan{t: o.t, traceID: id, id: id, parent: o.id, name: name, start: time.Now()}
}

// end closes o, recording count units of work done inside it.
func (o openSpan) end(count int64) {
	if o.t != nil {
		o.t.record(o.traceID, o.id, o.parent, o.name, o.start, time.Now(), count)
	}
}

// addChild records an already finished span caused by o.
func (o openSpan) addChild(name string, start, end time.Time, count int64) {
	if o.t != nil {
		o.t.record(o.traceID, o.t.newID(), o.id, name, start, end, count)
	}
}

func (t *tracer) record(traceID, id, parent uint64, name string, start, end time.Time, count int64) {
	s := span{TraceID: traceID, SpanID: id, ParentID: parent, Name: name,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(), Count: count}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanIndex answers self-time and coverage questions over a snapshot.
type spanIndex struct {
	spans    []span
	children map[uint64][]span
}

func (t *tracer) index() *spanIndex {
	ix := &spanIndex{spans: t.snapshot(), children: map[uint64][]span{}}
	for _, s := range ix.spans {
		if s.ParentID != 0 {
			ix.children[s.ParentID] = append(ix.children[s.ParentID], s)
		}
	}
	return ix
}

// covered is how many nanoseconds of s its children's union covers.
func (ix *spanIndex) covered(s span) int64 {
	kids := append([]span(nil), ix.children[s.SpanID]...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var total, curLo, curHi int64
	open := false
	for _, k := range kids {
		lo, hi := max(k.StartNS, s.StartNS), min(k.EndNS, s.EndNS)
		if hi <= lo {
			continue
		}
		if open && lo <= curHi {
			curHi = max(curHi, hi)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = lo, hi, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// self is s's duration minus the part of it its children cover.
func (ix *spanIndex) self(s span) int64 { return s.dur() - ix.covered(s) }

// coverage is the share of s its children cover.
func (ix *spanIndex) coverage(s span) float64 {
	if s.dur() <= 0 {
		return 1
	}
	return float64(ix.covered(s)) / float64(s.dur())
}

// named returns the spans called name.
func (ix *spanIndex) named(name string) []span {
	var out []span
	for _, s := range ix.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// totalSeconds sums the durations of the spans called name.
func (ix *spanIndex) totalSeconds(name string) float64 {
	var ns int64
	for _, s := range ix.named(name) {
		ns += s.dur()
	}
	return float64(ns) / 1e9
}

// writeSpans appends one JSON line {"workload":..., "spans":[...]} to
// path.
func writeSpans(path, workload string, spans []span) error {
	return appendJSONLine(path, struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
}
