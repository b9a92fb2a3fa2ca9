package main

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"path/filepath"
	"sync"
	"time"

	"substream/internal/server"
)

const (
	fleetAgents   = 64
	fleetP        = 0.05
	fleetVarOptK  = 1024
	checkpointGap = time.Second
	// dashboardGap is the open-loop period of dashboard refreshes (60/s);
	// a refresh folds 64 states in about 8 ms.
	dashboardGap = time.Second / 60
)

// fleetBench is the fan-in deployment: 64 one-shard agents, each with an
// unweighted f0 stream and a weighted varopt stream, shipping to one
// collector that checkpoints to disk.
type fleetBench struct {
	seed  uint64
	keys  *keyPool
	bytes *weightedPool

	col     *hostedCollector
	agents  []*hostedAgent
	snapDir string
	restore time.Duration // the set-up's collector restart, snapshot restore included

	// truth is written by the flushing connection and read by the
	// dashboard connection.
	truth fleetTruth
	// next body of each pool, shared by preload and load, and the next
	// agent the load's closed loop feeds.
	nextKeys, nextBytes int64
	nextAgent           int
}

// fleetTruth tracks, per agent, what was sent and what the collector
// holds as of the agent's newest accepted flush; hi additionally counts
// the one flush that may be in flight.
type fleetTruth struct {
	mu                  sync.Mutex
	sentFed, confFed    [fleetAgents][2]int64 // items per stream: flows, bytes
	sentW, confW        [fleetAgents]shipped
	lo, hi              shipped
	flowsFedLo, flowsHi int64
	mult                [poolBodies]int64 // weighted bodies sent, per pool body
}

func newFleetBench(seed uint64) *fleetBench {
	return &fleetBench{seed: seed, keys: newKeyPool(seed), bytes: newWeightedPool(seed)}
}

func (b *fleetBench) streams(agent int) map[string]server.StreamConfig {
	coins := splitmix64(b.seed ^ uint64(agent+1))
	return map[string]server.StreamConfig{
		"flows": {Stat: "f0", P: fleetP, Shards: 1, SampleSeed: coins | 1},
		"bytes": {Stat: "varopt", P: fleetP, Budget: fleetVarOptK, Shards: 1, SampleSeed: (coins >> 1) | 1},
	}
}

// deploy builds the fleet, preloads every agent with its share of both
// pools, ships, checkpoints and restarts the collector from the
// checkpoint.
func (b *fleetBench) deploy(e *env) error {
	b.snapDir = filepath.Join(e.workdir, fmt.Sprintf("snap-%d", e.nextDir()))
	cfg := server.CollectorConfig{SnapshotDir: b.snapDir}
	col, err := startCollector(e.tr, cfg)
	if err != nil {
		return err
	}
	b.col = col
	b.agents = b.agents[:0]
	for i := 0; i < fleetAgents; i++ {
		ag, err := startAgent(e.tr, fmt.Sprintf("agent-%02d", i), col.url, b.streams(i))
		if err != nil {
			return err
		}
		b.agents = append(b.agents, ag)
	}
	b.truth = fleetTruth{}
	b.nextKeys, b.nextBytes, b.nextAgent = 0, 0, 0
	ctx := context.Background()
	for round := 0; round < poolBodies; round++ {
		if err := b.feed(ctx, e.d, round%fleetAgents); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	for a := range b.agents {
		if err := b.flush(ctx, e.d, a, span{}); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	if err := col.collector().SaveSnapshot(); err != nil {
		return err
	}
	t0 := time.Now()
	col.swap(server.NewCollector(cfg))
	b.restore = time.Since(t0)
	if g, err := col.collector().Estimate("flows"); err != nil || g.Agents != fleetAgents {
		return fmt.Errorf("restored collector holds %d agents (err %v), want %d", g.Agents, err, fleetAgents)
	}
	return nil
}

func (b *fleetBench) teardown() {
	for _, ag := range b.agents {
		ag.stop()
	}
	b.agents = b.agents[:0]
	if b.col != nil {
		b.col.stop()
		b.col = nil
	}
}

func (b *fleetBench) collector() *hostedCollector { return b.col }

// feed sends agent a the next body of each stream.
func (b *fleetBench) feed(ctx context.Context, d *driver, a int) error {
	if err := b.feedKeys(ctx, d, a); err != nil {
		return err
	}
	return b.feedBytes(ctx, d, a)
}

// feedKeys sends agent a the next unweighted body under a driver.ingest
// span.
func (b *fleetBench) feedKeys(ctx context.Context, d *driver, a int) error {
	kb := b.nextKeys % poolBodies
	b.nextKeys++
	err := d.op("ingest", func(s span) error {
		return d.ingest(ctx, s, b.agents[a].url+"/v1/streams/flows/ingest", server.ContentTypeBinary, b.keys.bodies[kb], bodyItems)
	})
	if err == nil {
		b.truth.mu.Lock()
		b.truth.sentFed[a][0] += bodyItems
		b.truth.mu.Unlock()
	}
	return err
}

// feedBytes sends agent a the next weighted body under a driver.ingest
// span.
func (b *fleetBench) feedBytes(ctx context.Context, d *driver, a int) error {
	wb := b.nextBytes % poolBodies
	b.nextBytes++
	t := &b.truth
	t.mu.Lock()
	t.mult[wb]++
	t.mu.Unlock()
	err := d.op("ingest", func(s span) error {
		return d.ingest(ctx, s, b.agents[a].url+"/v1/streams/bytes/ingest", server.ContentTypeBinaryWeighted, b.bytes.bodies[wb], bodyItems)
	})
	if err == nil {
		t.mu.Lock()
		t.sentFed[a][1] += bodyItems
		t.sentW[a].subset += b.bytes.subset[wb]
		t.sentW[a].subsetSq += b.bytes.subsetSq[wb]
		t.mu.Unlock()
	}
	return err
}

// flush ships agent a's two streams; the truth's upper end moves before
// the request and its lower end once the collector has accepted both.
func (b *fleetBench) flush(ctx context.Context, d *driver, a int, s span) error {
	t := &b.truth
	t.mu.Lock()
	dw := shipped{subset: t.sentW[a].subset - t.confW[a].subset, subsetSq: t.sentW[a].subsetSq - t.confW[a].subsetSq}
	df := t.sentFed[a][0] - t.confFed[a][0]
	t.hi.subset += dw.subset
	t.hi.subsetSq += dw.subsetSq
	t.flowsHi += df
	sent := t.sentFed[a]
	sentW := t.sentW[a]
	t.mu.Unlock()
	var rep struct {
		Shipped int `json:"shipped"`
		Failed  int `json:"failed"`
	}
	if err := d.call(ctx, s, http.MethodPost, b.agents[a].url+"/v1/flush", "", nil, &rep); err != nil {
		return err
	}
	if rep.Shipped != 2 || rep.Failed != 0 {
		return fmt.Errorf("flush shipped %d failed %d, want 2 and 0", rep.Shipped, rep.Failed)
	}
	t.mu.Lock()
	t.lo.subset += dw.subset
	t.lo.subsetSq += dw.subsetSq
	t.flowsFedLo += df
	t.confFed[a], t.confW[a] = sent, sentW
	t.mu.Unlock()
	return nil
}

// refresh is one dashboard refresh: the global flows estimate and the
// bytes subset sum for 10.0.0.0/8, judged against the shipped truth.
func (b *fleetBench) refresh(ctx context.Context, d *driver, s span, p *phase) error {
	t := &b.truth
	t.mu.Lock()
	lo, fedLo := t.lo, t.flowsFedLo
	t.mu.Unlock()
	var est estimateReply
	if err := d.call(ctx, s, http.MethodGet, b.col.url+"/v1/streams/flows/estimate", "", nil, &est); err != nil {
		return err
	}
	var sum struct {
		Value   float64 `json:"subset_sum"`
		Agents  int     `json:"agents"`
		Skipped int     `json:"skipped_stale"`
	}
	q := url.Values{"stream": {"bytes"}, "prefix": {subsetPrefix}}
	if err := d.call(ctx, s, http.MethodGet, b.col.url+"/v1/subsetsum?"+q.Encode(), "", nil, &sum); err != nil {
		return err
	}
	t.mu.Lock()
	hi, fedHi := t.hi, t.flowsHi
	t.mu.Unlock()
	if est.Agents != fleetAgents || est.Skipped != 0 || sum.Agents != fleetAgents || sum.Skipped != 0 {
		return fmt.Errorf("fold covered %d/%d agents with %d/%d skipped, want %d and 0",
			est.Agents, sum.Agents, est.Skipped, sum.Skipped, fleetAgents)
	}
	if err := checkFed(est.Fed, fedLo, fedHi); err != nil {
		return err
	}
	if err := checkF0(est.Estimates.Values["f0"], b.keys.distinct, fleetP); err != nil {
		return err
	}
	p.mu.Lock()
	p.subsetAnswers = append(p.subsetAnswers, subsetAnswer{value: sum.Value, lo: lo, hi: hi})
	p.mu.Unlock()
	return nil
}

func (b *fleetBench) scrape(ctx context.Context, d *driver) (counters, error) {
	var c counters
	for _, ag := range b.agents {
		m, err := d.scrape(ctx, ag.url)
		if err != nil {
			return c, err
		}
		c.addAgent(m)
	}
	m, err := d.scrape(ctx, b.col.url)
	if err != nil {
		return c, err
	}
	c.addCollector(m)
	return c, nil
}

func (b *fleetBench) run(e *env, dur time.Duration, p *phase) {
	ctx := context.Background()
	before, err := b.scrape(ctx, e.d)
	p.tally.record(err)
	p.before = before
	p.lateLimitMs = 10 * ms(dashboardGap)
	for seg := 0; seg < segments; seg++ {
		r0, err := e.d.received(ctx, b.col.url)
		p.tally.record(err)
		b.stretch(ctx, e, dur/segments, p)
		r1, err := e.d.received(ctx, b.col.url)
		p.tally.record(err)
		p.setFlushes(r1-r0, p.windows[len(p.windows)-1].elapsed)
	}
	after, err := b.scrape(ctx, e.d)
	p.tally.record(err)
	p.after = after
	b.finalChecks(ctx, e, p)
}

// stretch runs the fleet's three loops for dur.
func (b *fleetBench) stretch(ctx context.Context, e *env, dur time.Duration, p *phase) {
	p.begin()
	start := p.start
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // connection 1, closed loop: per agent in turn, one body per stream, then a flush
		defer wg.Done()
		var ingestLat, flushLat []float64
		timed := func(dst *[]float64, fn func() error) {
			t0 := time.Now()
			err := fn()
			p.tally.record(err)
			if err == nil {
				*dst = append(*dst, ms(time.Since(t0)))
			}
		}
		for time.Now().Before(deadline) {
			a := b.nextAgent
			b.nextAgent = (a + 1) % fleetAgents
			timed(&ingestLat, func() error { return b.feedKeys(ctx, e.d, a) })
			timed(&ingestLat, func() error { return b.feedBytes(ctx, e.d, a) })
			timed(&flushLat, func() error {
				return e.d.op("flush", func(s span) error { return b.flush(ctx, e.d, a, s) })
			})
		}
		p.add(&p.ingest, ingestLat)
		p.add(&p.flush, flushLat)
		p.addItems(int64(len(ingestLat)) * bodyItems)
	}()
	go func() { // connection 2, open loop: dashboard refreshes, timed from their due time
		defer wg.Done()
		var lat []float64
		var ok []bool
		res := schedule{start: start, period: dashboardGap, end: deadline}.run(ctx, func(int) {
			err := e.d.op("refresh", func(s span) error { return b.refresh(ctx, e.d, s, p) })
			p.tally.record(err)
			ok = append(ok, err == nil)
		})
		for i, l := range res.latency {
			if ok[i] {
				lat = append(lat, ms(l))
			}
		}
		p.add(&p.query, lat)
		p.add(&p.late, msAll(res.late))
	}()
	go func() { // checkpoints, once a second
		defer wg.Done()
		var took []float64
		res := schedule{start: start.Add(checkpointGap), period: checkpointGap, end: deadline}.run(ctx, func(int) {
			t0 := time.Now()
			err := b.col.collector().SaveSnapshot()
			p.tally.record(err)
			took = append(took, ms(time.Since(t0)))
		})
		p.add(&p.checkpoint, took)
		p.add(&p.late, msAll(res.late))
	}()
	wg.Wait()
	p.finish()
}

// finalChecks run once load has stopped: exact fed counts per agent and
// stream, the sampling bands, conservation, and every recorded subset
// sum against the tolerance the finished multiset implies.
func (b *fleetBench) finalChecks(ctx context.Context, e *env, p *phase) {
	t := &b.truth
	var fedF0, keptF0, fedW, keptW uint64
	for a, ag := range b.agents {
		for si, name := range []string{"flows", "bytes"} {
			var rep estimateReply
			err := e.d.call(ctx, span{}, http.MethodGet, ag.url+"/v1/streams/"+name+"/estimate", "", nil, &rep)
			if err == nil && int64(rep.Fed) != t.sentFed[a][si] {
				err = fmt.Errorf("agent %d stream %s fed %d, sent %d", a, name, rep.Fed, t.sentFed[a][si])
			}
			p.tally.record(err)
			if si == 0 {
				fedF0, keptF0 = fedF0+rep.Fed, keptF0+rep.Kept
			} else {
				fedW, keptW = fedW+rep.Fed, keptW+rep.Kept
			}
		}
	}
	p.tally.record(checkKept(fedF0, keptF0, fleetP))
	p.tally.record(checkKept(fedW, keptW, fleetP))
	p.tally.record(conservation(p))
	p.tally.record(b.refresh(ctx, e.d, span{}, p))
	tau := varOptTau(b.bytes, t.mult[:], fleetP, fleetVarOptK)
	for _, a := range p.subsetAnswers {
		p.tally.record(checkSubsetSum(a, fleetP, tau))
	}
}

func (b *fleetBench) snapshotCfg() server.CollectorConfig {
	return server.CollectorConfig{SnapshotDir: b.snapDir}
}

func (b *fleetBench) replayInput() replayInput {
	s := b.streams(0)
	return replayInput{keys: b.keys.items, weighted: b.bytes.items, hitters: newSampledPool(b.seed),
		streams: []server.StreamConfig{s["flows"], s["bytes"]}}
}
