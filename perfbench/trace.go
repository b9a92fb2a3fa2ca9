package main

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records spans from outside the program, at each public
// surface a request crosses: the driver's request, the daemon handler
// (wrapping Handler()), the agent's ship POST (a RoundTripper installed
// as AgentConfig.Client) and the collector handler the POST lands on.
// The chain is driver.<op> -> agent.<route> -> ship.post ->
// collector.<route>; the parent travels in request headers across HTTP
// and in the request context inside the agent.
const (
	traceHeader = "X-Perfbench-Trace"
	spanHeader  = "X-Perfbench-Span"
)

type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent; a zero trace starts a new trace whose
// id is the root span's id.
func (t *tracer) begin(name string, trace, parent uint64) span {
	if t == nil {
		return span{}
	}
	id := t.next.Add(1)
	if trace == 0 {
		trace = id
	}
	return span{Trace: trace, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.epoch))}
}

// end closes s and records it.
func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.End = int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and starts a fresh record.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

func setSpanHeaders(h http.Header, s span) {
	if s.ID == 0 {
		return
	}
	h.Set(traceHeader, strconv.FormatUint(s.Trace, 10))
	h.Set(spanHeader, strconv.FormatUint(s.ID, 10))
}

func spanFromHeaders(h http.Header) (trace, parent uint64) {
	trace, _ = strconv.ParseUint(h.Get(traceHeader), 10, 64)
	parent, _ = strconv.ParseUint(h.Get(spanHeader), 10, 64)
	return trace, parent
}

type spanKey struct{}

// wrap records a <role>.<route> span around every request h serves and
// hands the span to the handler through the request context, where the
// agent's ship POST picks it up as its parent.
func (t *tracer) wrap(role string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace, parent := spanFromHeaders(r.Header)
		s := t.begin(role+"."+path.Base(r.URL.Path), trace, parent)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, s)))
		t.end(s)
	})
}

// shipTransport records a ship.post span around each request the agent
// sends upstream, parented on the agent span in the request context.
type shipTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (st shipTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, _ := req.Context().Value(spanKey{}).(span)
	s := st.t.begin("ship.post", parent.Trace, parent.ID)
	req = req.Clone(req.Context())
	setSpanHeaders(req.Header, s)
	resp, err := st.base.RoundTrip(req)
	st.t.end(s)
	return resp, err
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its children cover. Overlapping children count once
// and child time outside the parent's interval is ignored.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// orphans counts spans whose parent was never recorded.
func orphans(spans []span) int {
	ids := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		ids[s.ID] = true
	}
	n := 0
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			n++
		}
	}
	return n
}

// spanStats groups span durations and self times by name, in ms.
type spanStats struct {
	dur, self map[string][]float64
}

func summarizeSpans(spans []span) spanStats {
	self := selfTimes(spans)
	st := spanStats{dur: map[string][]float64{}, self: map[string][]float64{}}
	for _, s := range spans {
		st.dur[s.Name] = append(st.dur[s.Name], float64(s.dur())/1e6)
		st.self[s.Name] = append(st.self[s.Name], float64(self[s.ID])/1e6)
	}
	return st
}

// writeSpans writes spans as JSON lines.
func writeSpans(file string, spans []span) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
