package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

// A percentile carries its sample count and is only reportable with at
// least minTailBeyond samples beyond it.
func TestPercentileCarriesCount(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{1, 0.5, 1, false},
	}
	for _, c := range cases {
		p := quantileOf(seq(c.n), c.q)
		if p.N != c.n || p.Value != c.want || p.ok() != c.ok {
			t.Errorf("n=%d q=%g: got %+v ok=%v, want value %g ok=%v", c.n, c.q, p, p.ok(), c.want, c.ok)
		}
	}
	if p := quantileOf(nil, 0.5); p.N != 0 || p.ok() || p.Value == p.Value {
		t.Errorf("empty sample: got %+v, want N=0 and NaN", p)
	}
}

// An open-loop schedule charges a stall to the ops queued behind it:
// each later op is timed from its due time, and the generator's
// lateness shrinks by one period per op until it has caught up.
func TestOpenLoopChargesStallToLaterOps(t *testing.T) {
	const (
		period  = 10 * time.Millisecond
		stall   = 80 * time.Millisecond
		stalled = 3
		ops     = 14
	)
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if served.Add(1)-1 == stalled {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	client := srv.Client()

	start := time.Now().Add(5 * time.Millisecond)
	res := schedule{start: start, period: period, end: start.Add(ops * period)}.run(context.Background(), func(int) {
		resp, err := client.Get(srv.URL)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
	})
	if len(res.latency) != ops || len(res.late) != ops {
		t.Fatalf("ran %d ops (%d lateness samples), want %d", len(res.latency), len(res.late), ops)
	}
	for i := range res.latency {
		if res.latency[i] < res.late[i] {
			t.Errorf("op %d: latency %v below its lateness %v", i, res.latency[i], res.late[i])
		}
	}
	if res.latency[stalled] < stall {
		t.Errorf("stalled op latency %v, want at least %v", res.latency[stalled], stall)
	}
	// The op due one period after the stalled one waits out the rest of
	// the stall; the next waits one period less.
	next := stalled + 1
	if want := stall - period; res.late[next] < want {
		t.Errorf("op %d late by %v, want at least %v", next, res.late[next], want)
	}
	if d := res.late[next] - res.late[next+1]; d < period/2 || d > 2*period {
		t.Errorf("lateness fell by %v between ops %d and %d, want about one period (%v)", d, next, next+1, period)
	}
	if res.latency[next] < stall-period {
		t.Errorf("op %d latency %v does not include its wait", next, res.latency[next])
	}
	if last := res.late[ops-1]; last >= res.late[next] {
		t.Errorf("generator never caught up: last op late by %v", last)
	}
}
