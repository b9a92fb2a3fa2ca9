package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// segments is how many stretches a measured phase is split into. Rates
// are the median over the stretches, so a burst of load from other
// tenants that covers one or two of them does not move the figure.
const segments = 8

// phase is what one measured phase observed: latency samples per op
// class, work acknowledged and process cost per stretch, and the
// daemons' own counters before and after.
type phase struct {
	start   time.Time
	elapsed time.Duration // summed over the stretches
	cpu0    time.Duration
	items0  int64
	windows []window
	heapMB  float64
	tally   tally

	mu                   sync.Mutex
	items                int64     // original items acknowledged
	ingest, flush, query []float64 // ms
	late                 []float64 // ms, open-loop generator lateness
	checkpoint           []float64 // ms, SaveSnapshot calls during the phase
	before, after        counters
	subsetAnswers        []subsetAnswer
	lateLimitMs          float64 // lateness beyond which the run is invalid
}

// add appends samples under the phase lock; drivers batch their own
// samples and add them once when they stop.
func (p *phase) add(dst *[]float64, xs []float64) {
	p.mu.Lock()
	*dst = append(*dst, xs...)
	p.mu.Unlock()
}

func (p *phase) addItems(n int64) {
	p.mu.Lock()
	p.items += n
	p.mu.Unlock()
}

// window is what one stretch of a phase measured.
type window struct {
	elapsed time.Duration
	cpu     time.Duration
	items   int64 // original items acknowledged
	// summaries the collector absorbed over flushTime: the stretch
	// itself, or on ingest the read probe that follows it.
	summaries int64
	flushTime time.Duration
}

// begin starts a stretch of measured load.
func (p *phase) begin() {
	p.start = time.Now()
	p.cpu0 = cpuTime()
	p.mu.Lock()
	p.items0 = p.items
	p.mu.Unlock()
}

// finish records the stretch once every driver has stopped.
func (p *phase) finish() {
	el := time.Since(p.start)
	p.elapsed += el
	p.mu.Lock()
	p.windows = append(p.windows, window{elapsed: el, cpu: cpuTime() - p.cpu0, items: p.items - p.items0})
	p.mu.Unlock()
}

// setFlushes records on the last stretch's window that the collector
// absorbed n summaries over d.
func (p *phase) setFlushes(n int64, d time.Duration) {
	w := &p.windows[len(p.windows)-1]
	w.summaries, w.flushTime = n, d
}

// medianOver returns the median over the phase's windows of f.
func (p *phase) medianOver(f func(w window) float64) float64 {
	xs := make([]float64, len(p.windows))
	for i, w := range p.windows {
		xs[i] = f(w)
	}
	return median(xs)
}

// sampleMB is the heap the phase's own latency samples hold, which the
// heap_mb figure leaves out: it is the driver's memory, not the daemons'.
func (p *phase) sampleMB() float64 {
	n := cap(p.ingest) + cap(p.flush) + cap(p.query) + cap(p.late) + cap(p.checkpoint)
	n += cap(p.subsetAnswers) * int(unsafe.Sizeof(subsetAnswer{})) / 8
	return float64(8*n) / (1 << 20)
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces a collection and returns the live heap in MB. The
// second collection frees what the first moved to the sync.Pool victim
// caches, so the figure does not depend on when pools were last used.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// counters are the daemon counters the conservation checks and layer
// metrics read, summed over every hosted agent (and the collector).
type counters struct {
	decoded      float64 // agents' ingest_items
	fed, kept    float64 // agents' agent_stream_fed / _kept
	syncs        float64
	syncWaitS    float64
	shipped      float64 // agents' summaries_shipped
	shippedBytes float64
	shipStatus   float64 // ship attempts the collector answered non-2xx
	shipRetries  float64
	received     float64 // collector summaries_received
	rejected     float64
}

// addAgent folds one agent's /metricsz panel into c.
func (c *counters) addAgent(m map[string]float64) {
	c.decoded += m["ingest_items"]
	c.shipped += m["summaries_shipped"]
	c.shippedBytes += m["summary_bytes_shipped"]
	c.shipStatus += m[`ship_errors{cause="status"}`]
	c.shipRetries += m[`ship_errors{cause="retry"}`]
	for k, v := range m {
		switch seriesName(k) {
		case "agent_stream_fed":
			c.fed += v
		case "agent_stream_kept":
			c.kept += v
		case "agent_pipeline_syncs":
			c.syncs += v
		case "agent_pipeline_sync_wait_seconds":
			c.syncWaitS += v
		}
	}
}

// addCollector folds the collector's /metricsz panel into c.
func (c *counters) addCollector(m map[string]float64) {
	c.received += m["summaries_received"]
	c.rejected += m["summaries_rejected"]
}

// seriesName strips a series key's label set.
func seriesName(key string) string {
	for i := 0; i < len(key); i++ {
		if key[i] == '{' {
			return key[:i]
		}
	}
	return key
}

func (c counters) minus(o counters) counters {
	return counters{
		decoded: c.decoded - o.decoded, fed: c.fed - o.fed, kept: c.kept - o.kept,
		syncs: c.syncs - o.syncs, syncWaitS: c.syncWaitS - o.syncWaitS,
		shipped: c.shipped - o.shipped, shippedBytes: c.shippedBytes - o.shippedBytes,
		shipStatus: c.shipStatus - o.shipStatus, shipRetries: c.shipRetries - o.shipRetries,
		received: c.received - o.received, rejected: c.rejected - o.rejected,
	}
}
