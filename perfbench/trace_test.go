package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// Self time is a span's duration minus the union of its children's
// intervals, clipped to the span; grandchildren do not count twice.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps 2: union is [10, 50]
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to [90, 100]
		{ID: 5, Parent: 2, Start: 12, End: 28},
		{ID: 6, Start: 0, End: 7},
	}
	got := selfTimes(spans)
	want := map[uint64]int64{1: 100 - 40 - 10, 2: 20 - 16, 3: 30, 4: 30, 5: 16, 6: 7}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %d, want %d", id, got[id], w)
		}
	}
	if n := orphans(append(spans, span{ID: 7, Parent: 42})); n != 1 {
		t.Errorf("orphans = %d, want 1", n)
	}
}

// A traced request chain records driver -> agent -> ship.post ->
// collector spans, each parented on the previous one, in one trace.
func TestSpanChain(t *testing.T) {
	tr := newTracer()
	collector := httptest.NewServer(tr.wrap("collector", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})))
	defer collector.Close()
	ship := &http.Client{Transport: shipTransport{t: tr, base: http.DefaultTransport}}
	agent := httptest.NewServer(tr.wrap("agent", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := http.NewRequestWithContext(r.Context(), http.MethodPost, collector.URL+"/v1/collect", bytes.NewReader(nil))
		resp, err := ship.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
	})))
	defer agent.Close()

	d := &driver{client: agent.Client(), tr: tr}
	if err := d.op("flush", func(s span) error {
		return d.call(t.Context(), s, http.MethodPost, agent.URL+"/v1/flush", "", nil, nil)
	}); err != nil {
		t.Fatal(err)
	}
	byName := map[string]span{}
	for _, s := range tr.take() {
		byName[s.Name] = s
	}
	chain := []string{"driver.flush", "agent.flush", "ship.post", "collector.collect"}
	for i, name := range chain {
		s, ok := byName[name]
		if !ok {
			t.Fatalf("no %s span (have %v)", name, byName)
		}
		if s.Trace != byName[chain[0]].Trace {
			t.Errorf("%s in trace %d, want %d", name, s.Trace, byName[chain[0]].Trace)
		}
		if i > 0 && s.Parent != byName[chain[i-1]].ID {
			t.Errorf("%s parent %d, want %s (%d)", name, s.Parent, chain[i-1], byName[chain[i-1]].ID)
		}
	}
}
