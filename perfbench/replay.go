package main

import (
	"fmt"
	"time"

	"substream/internal/estimator"
	"substream/internal/pipeline"
	"substream/internal/server"
	"substream/internal/stream"
)

// The layer replay runs a workload's own input pools through the
// pipeline and estimator layers directly, single-producer and without
// HTTP: the per-item cost of each layer on exactly the bytes the
// daemons were sent.

type replayInput struct {
	keys     []stream.Slice
	weighted []stream.WSlice // nil when the workload has no weighted stream
	hitters  *sampledPool    // the workload's keys, presampled for hh1
	streams  []server.StreamConfig
}

// replayBudget bounds the repetitions of each replay measurement.
const (
	replayBudget = 300 * time.Millisecond
	replayMin    = 3
	replayMax    = 50
)

// repeat runs fn until the budget is spent (at least replayMin and at
// most replayMax times) and returns the median of its results.
func repeat(fn func() float64) float64 {
	var xs []float64
	start := time.Now()
	for len(xs) < replayMin || (len(xs) < replayMax && time.Since(start) < replayBudget) {
		xs = append(xs, fn())
	}
	return median(xs)
}

func specOf(cfg server.StreamConfig) estimator.Spec {
	return estimator.Spec{Stat: cfg.Stat, P: cfg.P, K: cfg.K, Epsilon: cfg.Epsilon,
		Alpha: cfg.Alpha, Budget: cfg.Budget, Exact: cfg.Exact, Seed: cfg.Seed}
}

// replayPipeline returns the ns per item of feeding every stream's pool
// through pipeline.New/FeedOwned/Sync with that stream's configuration.
func replayPipeline(in replayInput) (float64, error) {
	var total float64
	for _, cfg := range in.streams {
		spec := specOf(cfg)
		if _, err := estimator.New(spec); err != nil {
			return 0, err
		}
		sampleP := cfg.P
		if cfg.Presampled {
			sampleP = 0
		}
		weighted := cfg.Stat == "varopt"
		total += repeat(func() float64 {
			pl := pipeline.New(pipeline.Config{Shards: cfg.Shards, BatchSize: cfg.Batch, SampleP: sampleP, Seed: cfg.SampleSeed},
				func(int) estimator.Estimator {
					e, _ := estimator.New(spec) // validated above
					return e
				})
			defer pl.Close()
			t0 := time.Now()
			n := 0
			if weighted {
				for _, body := range in.weighted {
					pl.FeedWeightedOwned(body, nil)
					n += len(body)
				}
			} else {
				for _, body := range in.keys {
					pl.FeedOwned(body, nil)
					n += len(body)
				}
			}
			pl.Sync()
			return float64(time.Since(t0).Nanoseconds()) / float64(n)
		})
	}
	return total / float64(len(in.streams)), nil
}

// replayStats are the stat kinds the estimator replay measures, with the
// configuration each runs under in the workloads that serve it.
var replayStats = []struct {
	name string
	spec estimator.Spec
}{
	{"f0", estimator.Spec{Stat: "f0", P: fleetP}},
	{"hh1", estimator.Spec{Stat: "hh1", P: hh1P}},
	{"varopt", estimator.Spec{Stat: "varopt", P: fleetP, Budget: fleetVarOptK}},
}

// replayEstimators measures each stat kind single-threaded on the
// workload's pool: UpdateBatch per item, then Merge of two half-pool
// states, MarshalBinary, Decode and ReportOf of the full state, and the
// state's wire size. The varopt kind takes the weighted pool where the
// workload has one and unit weights otherwise; hh1 takes the presampled
// pool, and its full report is judged against Theorem 6 into t.
func replayEstimators(in replayInput, t *tally) (map[string]metric, error) {
	out := make(map[string]metric)
	for _, st := range replayStats {
		keys := in.keys
		if st.name == "hh1" {
			keys = in.hitters.items
		}
		build := func(bodies int, from int) (estimator.Estimator, int, error) {
			e, err := estimator.New(st.spec)
			if err != nil {
				return nil, 0, err
			}
			n := 0
			w, weighted := estimator.WeightedOf(e)
			if st.name == "varopt" && in.weighted != nil && weighted {
				for _, body := range in.weighted[from : from+bodies] {
					w.UpdateWeightedBatch(body)
					n += len(body)
				}
				return e, n, nil
			}
			for _, body := range keys[from : from+bodies] {
				e.UpdateBatch(body)
				n += len(body)
			}
			return e, n, nil
		}
		bodies := len(keys)
		var buildErr error
		out["estimator.update_ns_per_item."+st.name] = metric{Unit: "ns", Value: repeat(func() float64 {
			t0 := time.Now()
			_, n, err := build(bodies, 0)
			if err != nil {
				buildErr = err
				return 0
			}
			return float64(time.Since(t0).Nanoseconds()) / float64(n)
		})}
		if buildErr != nil {
			return nil, buildErr
		}
		full, _, _ := build(bodies, 0)
		if st.name == "hh1" {
			t.record(checkHitters(estimator.ReportOf(full), in.hitters, 0.05, 0.2))
		}
		payload, err := full.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("%s: marshal: %w", st.name, err)
		}
		out["estimator.summary_bytes."+st.name] = metric{Unit: "bytes", Value: float64(len(payload))}
		out["estimator.marshal_us."+st.name] = metric{Unit: "us", Value: repeat(func() float64 {
			t0 := time.Now()
			_, _ = full.MarshalBinary() // succeeded above on the same state
			return us(time.Since(t0))
		})}
		if _, err := estimator.Decode(payload); err != nil {
			return nil, fmt.Errorf("%s: decode: %w", st.name, err)
		}
		out["estimator.decode_us."+st.name] = metric{Unit: "us", Value: repeat(func() float64 {
			t0 := time.Now()
			_, _ = estimator.Decode(payload) // accepted just above
			return us(time.Since(t0))
		})}
		out["estimator.report_us."+st.name] = metric{Unit: "us", Value: repeat(func() float64 {
			t0 := time.Now()
			estimator.ReportOf(full)
			return us(time.Since(t0))
		})}
		a, _, _ := build(bodies/2, 0)
		b, _, _ := build(bodies-bodies/2, bodies/2)
		pa, _ := a.MarshalBinary()
		pb, _ := b.MarshalBinary()
		var mergeErr error
		out["estimator.merge_us."+st.name] = metric{Unit: "us", Value: repeat(func() float64 {
			x, _ := estimator.Decode(pa)
			y, _ := estimator.Decode(pb)
			t0 := time.Now()
			if err := x.Merge(y); err != nil {
				mergeErr = err
			}
			return us(time.Since(t0))
		})}
		if mergeErr != nil {
			return nil, fmt.Errorf("%s: merge: %w", st.name, mergeErr)
		}
	}
	return out, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
