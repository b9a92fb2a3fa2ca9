package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"substream/internal/estimator"
	"substream/internal/server"
)

const (
	ingestConns = 2
	ingestP     = 0.05
	// readProbeOps is how many estimates and how many flushes the read
	// probes send in all: enough for a p99 with twenty samples beyond it.
	readProbeOps = 2000
)

// ingestBench is the sampled-NetFlow deployment: one agent with an f0
// stream sampled in the agent, shipping to a collector, fed by closed-
// loop ingest connections. The measured ingest carries no reads. After
// each of its stretches (see segments) a read probe runs alone: one closed-loop connection
// alternating the agent's GET estimate and POST flush on the state the
// ingest built, so the flush and query metrics are read without
// stalling the ingest being measured.
type ingestBench struct {
	seed   uint64
	stream string
	cfg    server.StreamConfig
	pool   *keyPool

	col     *hostedCollector
	ag      *hostedAgent
	snapDir string
	// Bodies claimed by a connection and bodies acknowledged, counted
	// from the first preload body.
	claimed, acked atomic.Int64
}

func newIngestBench(seed uint64) *ingestBench {
	return &ingestBench{
		seed:   seed,
		stream: "flows",
		cfg:    server.StreamConfig{Stat: "f0", P: ingestP, SampleSeed: seed | 1},
		pool:   newKeyPool(seed),
	}
}

func (b *ingestBench) streamURL() string { return b.ag.url + "/v1/streams/" + b.stream }

// deploy builds the roles and preloads one pass of the pool, so every
// pool key is known to the agent before load starts, then ships once.
func (b *ingestBench) deploy(e *env) error {
	b.snapDir = filepath.Join(e.workdir, fmt.Sprintf("snap-%d", e.nextDir()))
	col, err := startCollector(e.tr, server.CollectorConfig{SnapshotDir: b.snapDir})
	if err != nil {
		return err
	}
	b.col = col
	ag, err := startAgent(e.tr, "agent-0", col.url, map[string]server.StreamConfig{b.stream: b.cfg})
	if err != nil {
		return err
	}
	b.ag = ag
	b.claimed.Store(0)
	b.acked.Store(0)
	ctx := context.Background()
	for _, body := range b.pool.bodies {
		b.claimed.Add(1)
		if err := e.d.ingest(ctx, span{}, b.streamURL()+"/ingest", server.ContentTypeBinary, body, bodyItems); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		b.acked.Add(1)
	}
	return b.flush(ctx, e.d, span{})
}

func (b *ingestBench) teardown() {
	if b.ag != nil {
		b.ag.stop()
		b.ag = nil
	}
	if b.col != nil {
		b.col.stop()
		b.col = nil
	}
}

func (b *ingestBench) collector() *hostedCollector { return b.col }

func (b *ingestBench) scrape(ctx context.Context, d *driver) (counters, error) {
	var c counters
	am, err := d.scrape(ctx, b.ag.url)
	if err != nil {
		return c, err
	}
	cm, err := d.scrape(ctx, b.col.url)
	if err != nil {
		return c, err
	}
	c.addAgent(am)
	c.addCollector(cm)
	return c, nil
}

func (b *ingestBench) flush(ctx context.Context, d *driver, s span) error {
	var rep struct {
		Shipped int `json:"shipped"`
	}
	if err := d.call(ctx, s, http.MethodPost, b.streamURL()+"/flush", "", nil, &rep); err != nil {
		return err
	}
	if rep.Shipped != 1 {
		return fmt.Errorf("flush shipped %d summaries, want 1", rep.Shipped)
	}
	return nil
}

// estimateReply is an estimate answer, local or global.
type estimateReply struct {
	Fed       uint64           `json:"fed"`
	Kept      uint64           `json:"kept"`
	Agents    int              `json:"agents"`
	Skipped   int              `json:"skipped_stale"`
	Estimates estimator.Report `json:"estimates"`
}

// estimate reads the agent's answer and judges it: fed must equal the
// items acknowledged, kept/fed must fit the sampling rate, and F0 must
// meet Lemma 8.
func (b *ingestBench) estimate(ctx context.Context, d *driver, s span) error {
	var rep estimateReply
	if err := d.call(ctx, s, http.MethodGet, b.streamURL()+"/estimate", "", nil, &rep); err != nil {
		return err
	}
	sent := b.acked.Load()
	if rep.Fed != uint64(sent*bodyItems) {
		return fmt.Errorf("fed %d, sent %d items", rep.Fed, sent*bodyItems)
	}
	if err := checkKept(rep.Fed, rep.Kept, b.cfg.P); err != nil {
		return err
	}
	return checkF0(rep.Estimates.Values["f0"], b.pool.distinct, b.cfg.P)
}

func (b *ingestBench) run(e *env, dur time.Duration, p *phase) {
	ctx := context.Background()
	before, err := b.scrape(ctx, e.d)
	p.tally.record(err)
	p.before = before
	for seg := 0; seg < segments; seg++ {
		b.ingestFor(ctx, e, dur/segments, p)
		p.tally.record(func() error {
			if c, a := b.claimed.Load(), b.acked.Load(); c != a {
				return fmt.Errorf("%d bodies claimed but %d acknowledged", c, a)
			}
			return nil
		}())
		b.readProbe(ctx, e, readProbeOps/segments, p)
	}
	after, err := b.scrape(ctx, e.d)
	p.tally.record(err)
	p.after = after
	p.tally.record(conservation(p))
}

// ingestFor runs the closed-loop ingest connections for dur.
func (b *ingestBench) ingestFor(ctx context.Context, e *env, dur time.Duration, p *phase) {
	p.begin()
	deadline := p.start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < ingestConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			for time.Now().Before(deadline) {
				body := b.pool.bodies[(b.claimed.Add(1)-1)%poolBodies]
				t0 := time.Now()
				err := e.d.op("ingest", func(s span) error {
					return e.d.ingest(ctx, s, b.streamURL()+"/ingest", server.ContentTypeBinary, body, bodyItems)
				})
				p.tally.record(err)
				if err == nil {
					lat = append(lat, ms(time.Since(t0)))
					b.acked.Add(1)
				}
			}
			p.add(&p.ingest, lat)
			p.addItems(int64(len(lat)) * bodyItems)
		}()
	}
	wg.Wait()
	p.finish()
}

// readProbe alternates n estimates and n flushes on one closed-loop
// connection and records the flush rate on the stretch before it. Every
// estimate is judged exactly, since nothing is ingested while the probe
// runs.
func (b *ingestBench) readProbe(ctx context.Context, e *env, n int, p *phase) {
	r0, err := e.d.received(ctx, b.col.url)
	p.tally.record(err)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		for _, r := range []struct {
			name string
			dst  *[]float64
			fn   func(s span) error
		}{
			{"estimate", &p.query, func(s span) error { return b.estimate(ctx, e.d, s) }},
			{"flush", &p.flush, func(s span) error { return b.flush(ctx, e.d, s) }},
		} {
			t := time.Now()
			err := e.d.op(r.name, r.fn)
			p.tally.record(err)
			if err == nil {
				*r.dst = append(*r.dst, ms(time.Since(t)))
			}
		}
	}
	took := time.Since(t0)
	r1, err := e.d.received(ctx, b.col.url)
	p.tally.record(err)
	p.setFlushes(r1-r0, took)
}

// conservation checks the daemons' own counters over the phase: every
// item decoded was fed to a pipeline, and every summary shipped was
// accepted or rejected by the collector.
func conservation(p *phase) error {
	d := p.after.minus(p.before)
	if d.decoded != d.fed {
		return fmt.Errorf("agents decoded %.0f items but fed %.0f", d.decoded, d.fed)
	}
	if d.decoded != float64(p.items) {
		return fmt.Errorf("agents decoded %.0f items, driver had %d acknowledged", d.decoded, p.items)
	}
	if d.shipped+d.shipStatus != d.received+d.rejected {
		return fmt.Errorf("agents shipped %.0f summaries, collector accepted %.0f and rejected %.0f",
			d.shipped+d.shipStatus, d.received, d.rejected)
	}
	return nil
}

func (b *ingestBench) snapshotCfg() server.CollectorConfig {
	return server.CollectorConfig{SnapshotDir: b.snapDir}
}

// replayInput returns the workload's own inputs and streams for the
// layer replay.
func (b *ingestBench) replayInput() replayInput {
	return replayInput{keys: b.pool.items, hitters: newSampledPool(b.seed), streams: []server.StreamConfig{b.cfg}}
}
