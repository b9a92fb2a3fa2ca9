package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"substream/internal/server"
)

// The roles are hosted the way cmd/substreamd hosts them: server.NewAgent
// and server.NewCollector, their Handler()s served by server.Start on
// 127.0.0.1 listeners. Background loops (Agent.Run's flush ticker,
// Collector.Run's checkpoint ticker) are not started: the drivers own
// the flush and checkpoint cadence so every run does the same work.

type hostedAgent struct {
	agent *server.Agent
	srv   *server.Server
	url   string
}

// startAgent builds an agent shipping to upstream and serves it. With a
// tracer, its handler and its ship client record spans.
func startAgent(tr *tracer, id, upstream string, streams map[string]server.StreamConfig) (*hostedAgent, error) {
	cfg := server.AgentConfig{ID: id, Upstream: upstream}
	if tr != nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second, Transport: shipTransport{t: tr, base: http.DefaultTransport}}
	}
	a := server.NewAgent(cfg)
	for name, sc := range streams {
		if err := a.CreateStream(name, sc); err != nil {
			a.Close()
			return nil, fmt.Errorf("agent %s stream %s: %w", id, name, err)
		}
	}
	srv, err := server.Start("127.0.0.1:0", tr.wrap("agent", a.Handler()))
	if err != nil {
		a.Close()
		return nil, err
	}
	return &hostedAgent{agent: a, srv: srv, url: srv.URL()}, nil
}

func (h *hostedAgent) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = h.srv.Shutdown(ctx) // the listener is gone either way; nothing to report
	h.agent.Close()
}

// hostedCollector serves whichever collector is current behind one
// listener, so a restart (a new Collector restored from its snapshot)
// keeps the URL the agents ship to.
type hostedCollector struct {
	tr  *tracer
	cur atomic.Pointer[server.Collector]
	h   atomic.Pointer[http.Handler]
	srv *server.Server
	url string
}

func startCollector(tr *tracer, cfg server.CollectorConfig) (*hostedCollector, error) {
	hc := &hostedCollector{tr: tr}
	hc.swap(server.NewCollector(cfg))
	srv, err := server.Start("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*hc.h.Load()).ServeHTTP(w, r)
	}))
	if err != nil {
		return nil, err
	}
	hc.srv, hc.url = srv, srv.URL()
	return hc, nil
}

func (hc *hostedCollector) swap(c *server.Collector) {
	h := hc.tr.wrap("collector", c.Handler())
	hc.cur.Store(c)
	hc.h.Store(&h)
}

func (hc *hostedCollector) collector() *server.Collector { return hc.cur.Load() }

func (hc *hostedCollector) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = hc.srv.Shutdown(ctx) // see hostedAgent.stop
}

// driver is the load generator's HTTP side: one client shared by the
// driver goroutines, each of which keeps at most one request in flight.
type driver struct {
	client *http.Client
	tr     *tracer
}

func newDriver(tr *tracer) *driver {
	return &driver{tr: tr, client: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        512,
			MaxIdleConnsPerHost: 4,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		},
	}}
}

func (d *driver) close() { d.client.CloseIdleConnections() }

// call sends one request under span s and decodes a 2xx JSON reply into
// out (when non-nil). Any transport error, non-2xx status or undecodable
// reply is an error.
func (d *driver) call(ctx context.Context, s span, method, url, ctype string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	setSpanHeaders(req.Header, s)
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("%s %s: decoding reply: %w", method, url, err)
		}
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// op runs one traced driver operation: a driver.<name> span around fn,
// which passes the span on to the requests it sends.
func (d *driver) op(name string, fn func(s span) error) error {
	s := d.tr.begin("driver."+name, 0, 0)
	err := fn(s)
	d.tr.end(s)
	return err
}

// ingestReply is the agent's ingest acknowledgement.
type ingestReply struct {
	Ingested int `json:"ingested"`
}

// ingest posts one body and checks the acknowledged item count.
func (d *driver) ingest(ctx context.Context, s span, url, ctype string, body []byte, items int) error {
	var rep ingestReply
	if err := d.call(ctx, s, http.MethodPost, url, ctype, body, &rep); err != nil {
		return err
	}
	if rep.Ingested != items {
		return fmt.Errorf("ingest acknowledged %d items, sent %d", rep.Ingested, items)
	}
	return nil
}

// scrape reads a daemon's flat /metricsz panel, keeping numeric series.
func (d *driver) scrape(ctx context.Context, base string) (map[string]float64, error) {
	var raw map[string]any
	if err := d.call(ctx, span{}, http.MethodGet, base+"/metricsz", "", nil, &raw); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// received reads the summaries a collector has absorbed.
func (d *driver) received(ctx context.Context, collectorURL string) (int64, error) {
	m, err := d.scrape(ctx, collectorURL)
	return int64(m["summaries_received"]), err
}

// tally counts attempted and failed operations and keeps the first few
// failure messages for the report.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	notes             []string
}

const maxNotes = 8

// record counts one operation, failed when err is non-nil.
func (t *tally) record(err error) {
	t.attempted.Add(1)
	if err == nil {
		return
	}
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.notes) < maxNotes {
		t.notes = append(t.notes, err.Error())
	}
	t.mu.Unlock()
}
