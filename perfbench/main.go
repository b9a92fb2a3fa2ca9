// Command perfbench is the repository's end-to-end benchmark. It hosts
// the daemon roles (server.NewAgent, server.NewCollector) in-process on
// loopback listeners, drives them over HTTP with inputs generated from a
// seed, checks every answer, and prints the end-to-end metrics of one
// workload; with -trace 1 it prints the per-layer metrics instead.
//
// Run it through run.sh, which builds it from source:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// The exit code is non-zero when any answer or counter check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"substream/internal/server"
)

// setupReps is how many times a run builds its deployment; setup_s is
// the median. The first setupsBefore builds come before the measured
// phase, and load runs on the last of them; the rest come after it, so
// a burst of load from other tenants moves fewer of the samples.
const (
	setupReps    = 15
	setupsBefore = 8
)

// bench is one workload's deployment and drivers.
type bench interface {
	// deploy builds the roles and preloads them until they are ready
	// for load: the timed set-up.
	deploy(e *env) error
	// run is the measured phase.
	run(e *env, dur time.Duration, p *phase)
	teardown()
	collector() *hostedCollector
	snapshotCfg() server.CollectorConfig
	replayInput() replayInput
}

var workloads = map[string]func(seed uint64) bench{
	"ingest": func(seed uint64) bench { return newIngestBench(seed) },
	"fleet":  func(seed uint64) bench { return newFleetBench(seed) },
}

// env is what a deployment shares with its drivers.
type env struct {
	workdir string
	tr      *tracer // nil when untraced
	d       *driver
	dirs    int
	// baseMB is the live heap before the first deployment, when only
	// the input pools and the driver exist; heap_mb is measured above it.
	baseMB float64
}

// nextDir numbers the snapshot directories of successive deployments.
func (e *env) nextDir() int {
	e.dirs++
	return e.dirs
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: ingest | fleet")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 40, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	workdir := flag.String("workdir", ".bench_build", "scratch directory for snapshots and spans")
	flag.Parse()
	newBench, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload ingest|fleet, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(os.Stdout, *workload, newBench(*seed), time.Duration(*seconds)*time.Second, *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding the result:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures one workload and returns the result line.
func run(w io.Writer, name string, b bench, dur time.Duration, traced bool, workdir string) (*result, error) {
	dir, err := os.MkdirTemp(workdirOrCreate(workdir), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{workdir: dir, d: newDriver(nil), baseMB: liveHeapMB()}
	defer e.d.close()

	var setups []float64
	setUp := func() error {
		runtime.GC() // collect the previous deployment outside the timed set-up
		t0 := time.Now()
		err := b.deploy(e)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			b.teardown()
			return fmt.Errorf("set-up: %w", err)
		}
		return nil
	}
	for i := 0; i < setupsBefore; i++ {
		if i > 0 {
			b.teardown()
		}
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	liveHeapMB() // collect the torn-down deployments before measuring
	p := &phase{}
	b.run(e, dur, p)
	p.heapMB = liveHeapMB() - e.baseMB - p.sampleMB()
	b.teardown()
	for len(setups) < setupReps {
		if err := setUp(); err != nil {
			return nil, err
		}
		b.teardown()
	}
	e2e := endToEnd(p, median(setups))
	fmt.Fprintf(w, "workload %s: %d setups, measured %.2fs\n", name, len(setups), p.elapsed.Seconds())
	printPhase(w, "untraced", p, e2e)

	res := &result{Attempted: p.tally.attempted.Load(), Failed: p.tally.failed.Load(), Metrics: e2e}
	if traced {
		layer, tp, err := tracedRun(w, name, b, e, dur, workdir)
		if err != nil {
			return nil, err
		}
		res.Attempted += tp.tally.attempted.Load()
		res.Failed += tp.tally.failed.Load()
		for k, v := range endToEnd(tp, median(setups)) {
			if k != "setup_s" {
				layer["trace_overhead."+k] = metric{Value: v.Value - e2e[k].Value, Unit: v.Unit}
			}
		}
		res.Metrics = layer
		printMetrics(w, layer)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func workdirOrCreate(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports any failure that matters
	return dir
}

// tracedRun deploys again with every boundary traced, repeats the
// measured phase, replays the layers, and derives the per-layer metrics.
func tracedRun(w io.Writer, name string, b bench, e *env, dur time.Duration, workdir string) (map[string]metric, *phase, error) {
	tr := newTracer()
	te := &env{workdir: e.workdir, tr: tr, d: newDriver(tr), dirs: e.dirs, baseMB: e.baseMB}
	defer te.d.close()
	if err := b.deploy(te); err != nil {
		b.teardown()
		return nil, nil, fmt.Errorf("traced set-up: %w", err)
	}
	tr.take() // set-up spans are not part of the measured phase
	p := &phase{}
	b.run(te, dur, p)
	p.heapMB = liveHeapMB() - te.baseMB - p.sampleMB()
	spans := tr.take()

	layer := map[string]metric{}
	put := func(name, unit string, v float64) { layer[name] = metric{Value: v, Unit: unit} }
	st := summarizeSpans(spans)
	p50 := func(xs []float64) float64 { return zeroIfEmpty(quantileOf(xs, 0.5)) }
	p99 := func(xs []float64) float64 { return zeroIfEmpty(quantileOf(xs, 0.99)) }
	agentIngest := st.dur["agent.ingest"]
	put("tail.ingest_p99_ms", "ms", p99(p.ingest))
	put("tail.flush_p99_ms", "ms", p99(p.flush))
	put("tail.query_p99_ms", "ms", p99(p.query))
	put("driver.late_p99_ms", "ms", p99(p.late))
	// driver.ingest's only child is the agent.ingest span, so its self
	// time is what net/http over loopback adds to the round trip.
	put("http.ingest_transport_p50_ms", "ms", p50(st.self["driver.ingest"]))
	put("http.ship_transport_p50_ms", "ms", p50(st.self["ship.post"]))
	put("agent.ingest_p50_ms", "ms", p50(agentIngest))
	put("agent.ingest_p99_ms", "ms", p99(agentIngest))
	put("agent.flush_self_p50_ms", "ms", p50(st.self["agent.flush"]))
	put("agent.estimate_p50_ms", "ms", p50(st.dur["agent.estimate"]))
	d := p.after.minus(p.before)
	put("agent.summary_bytes", "bytes", ratio(d.shippedBytes, d.shipped))
	put("collector.collect_p50_ms", "ms", p50(st.dur["collector.collect"]))
	put("collector.collect_p99_ms", "ms", p99(st.dur["collector.collect"]))
	put("collector.estimate_p50_ms", "ms", p50(st.dur["collector.estimate"]))
	put("collector.subsetsum_p50_ms", "ms", p50(st.dur["collector.subsetsum"]))
	put("collector.rejects", "count", d.rejected)
	put("ship.retries", "count", d.shipRetries)
	put("pipeline.kept_ratio", "ratio", ratio(d.kept, d.fed))
	put("pipeline.sync_wait_ms", "ms", 1e3*ratio(d.syncWaitS, d.syncs))

	save, restore, size, err := probeSnapshots(b, 5)
	p.tally.record(err)
	put("collector.snapshot_save_ms", "ms", p50(save))
	put("collector.restore_ms", "ms", p50(restore))
	put("collector.snapshot_bytes", "bytes", float64(size))
	b.teardown()

	in := b.replayInput()
	feed, err := replayPipeline(in)
	if err != nil {
		return nil, nil, fmt.Errorf("pipeline replay: %w", err)
	}
	put("pipeline.feed_ns_per_item", "ns", feed)
	est, err := replayEstimators(in, &p.tally)
	if err != nil {
		return nil, nil, fmt.Errorf("estimator replay: %w", err)
	}
	maps.Copy(layer, est)
	// Printed after the probes and the replay, which record their checks
	// in the traced phase's tally.
	printPhase(w, "traced", p, endToEnd(p, math.NaN()))

	file := filepath.Join(workdir, "spans-"+name+".jsonl")
	if err := writeSpans(file, spans); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(w, "spans: %d written to %s, %d without a recorded parent\n", len(spans), file, orphans(spans))
	return layer, p, nil
}

// probeSnapshots times the collector's durability path directly on the
// state the run left: SaveSnapshot, then RestoreSnapshot into a fresh
// collector sharing the snapshot directory.
func probeSnapshots(b bench, reps int) (save, restore []float64, size int64, err error) {
	c := b.collector().collector()
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := c.SaveSnapshot(); err != nil {
			return nil, nil, 0, err
		}
		save = append(save, ms(time.Since(t0)))
	}
	cfg := b.snapshotCfg()
	fi, err := os.Stat(filepath.Join(cfg.SnapshotDir, "collector.snap"))
	if err != nil {
		return nil, nil, 0, err
	}
	fresh := server.NewCollector(cfg)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if _, err := fresh.RestoreSnapshot(); err != nil {
			return nil, nil, 0, err
		}
		restore = append(restore, ms(time.Since(t0)))
	}
	return save, restore, fi.Size(), nil
}

// zeroIfEmpty reports a percentile's value, or 0 when the workload never
// exercised the span (README: a 0 per-layer latency means "no samples").
func zeroIfEmpty(p percentile) float64 {
	if p.N == 0 {
		return 0
	}
	return p.Value
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd derives the end-to-end metrics of a phase.
func endToEnd(p *phase, setupS float64) map[string]metric {
	m := map[string]metric{
		"setup_s":            {setupS, "s"},
		"ingest_items_per_s": {p.medianOver(func(w window) float64 { return float64(w.items) / w.elapsed.Seconds() }), "items/s"},
		"ingest_p50_ms":      {zeroIfEmpty(quantileOf(p.ingest, 0.5)), "ms"},
		"cpu_ns_per_item":    {p.medianOver(func(w window) float64 { return float64(w.cpu.Nanoseconds()) / float64(w.items) }), "ns"},
		"flush_p50_ms":       {zeroIfEmpty(quantileOf(p.flush, 0.5)), "ms"},
		"flushes_per_s":      {p.medianOver(func(w window) float64 { return float64(w.summaries) / w.flushTime.Seconds() }), "1/s"},
		"query_p50_ms":       {zeroIfEmpty(quantileOf(p.query, 0.5)), "ms"},
		"heap_mb":            {p.heapMB, "MB"},
	}
	return m
}

// printPhase prints a phase's metrics with the sample count behind each
// percentile, the op counts and error rate, and the first failures.
func printPhase(w io.Writer, label string, p *phase, m map[string]metric) {
	fmt.Fprintf(w, "[%s]\n", label)
	for _, c := range []struct {
		name string
		xs   []float64
	}{{"ingest", p.ingest}, {"flush", p.flush}, {"query", p.query}, {"late", p.late}, {"checkpoint", p.checkpoint}} {
		fmt.Fprintf(w, "  %-7s %s  %s\n", c.name, quantileOf(c.xs, 0.5), quantileOf(c.xs, 0.99))
		if q := quantileOf(c.xs, 0.99); (c.name == "ingest" || c.name == "flush" || c.name == "query") && !q.ok() {
			fmt.Fprintf(w, "  WARNING: %s p99 rests on %d samples, fewer than %d\n", c.name, q.N, int(minTailBeyond/(1-q.Q)))
		}
	}
	if late := quantileOf(p.late, 0.99); late.N > 0 && late.Value > p.lateLimitMs {
		fmt.Fprintf(w, "  WARNING: generator ran %.1f ms late at p99 (limit %.1f ms): run invalid\n", late.Value, p.lateLimitMs)
	}
	attempted, failed := p.tally.attempted.Load(), p.tally.failed.Load()
	fmt.Fprintf(w, "  ops attempted %d failed %d error_rate %g\n", attempted, failed, ratio(float64(failed), float64(attempted)))
	for _, n := range p.tally.notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
	printMetrics(w, m)
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
