package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"
)

// minTailBeyond is how many samples must lie beyond a reported
// percentile: p99 needs 1000 samples, p50 needs 20.
const minTailBeyond = 10

// percentile is one reported quantile together with the number of
// samples behind it, so a tail figure never hides a thin sample.
type percentile struct {
	Q     float64 // in (0, 1)
	Value float64
	N     int
}

// ok reports whether at least minTailBeyond samples lie beyond Q.
func (p percentile) ok() bool {
	return p.N > 0 && float64(p.N)*(1-p.Q) >= minTailBeyond
}

func (p percentile) String() string {
	return fmt.Sprintf("p%g=%.4g (n=%d)", 100*p.Q, p.Value, p.N)
}

// quantileOf returns the nearest-rank q-quantile of xs (sorting xs in
// place). With no samples the value is NaN.
func quantileOf(xs []float64, q float64) percentile {
	if len(xs) == 0 {
		return percentile{Q: q, Value: math.NaN()}
	}
	slices.Sort(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	rank = max(0, min(rank, len(xs)-1))
	return percentile{Q: q, Value: xs[rank], N: len(xs)}
}

// median returns the median of xs (sorting xs in place).
func median(xs []float64) float64 { return quantileOf(xs, 0.5).Value }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msAll converts durations to float milliseconds.
func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// schedule is one open-loop run: op i is due at start + i*period and is
// issued no earlier; ops run one at a time, so a stalled op delays the
// ones behind it, and that delay is charged to them.
type schedule struct {
	start  time.Time
	period time.Duration
	end    time.Time // no op is due at or after end
}

// openLoopResult holds, per op, the latency measured from its due time
// and how late the generator issued it.
type openLoopResult struct {
	latency []time.Duration
	late    []time.Duration
}

// run issues ops until the schedule ends or ctx is done. do receives the
// op's index and reports nothing: errors are the caller's to count. Ops
// still owed when the schedule ends are not sent, so a generator that
// fell behind stops on time; its lateness shows in late.
func (s schedule) run(ctx context.Context, do func(i int)) openLoopResult {
	var res openLoopResult
	for i := 0; ; i++ {
		due := s.start.Add(time.Duration(i) * s.period)
		if !due.Before(s.end) || !time.Now().Before(s.end) {
			return res
		}
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return res
			case <-t.C:
			}
		} else if ctx.Err() != nil {
			return res
		}
		issued := time.Now()
		do(i)
		res.late = append(res.late, max(issued.Sub(due), 0))
		res.latency = append(res.latency, time.Since(due))
	}
}
