package main

import (
	"fmt"
	"math"

	"substream/internal/estimator"
)

// The oracle judges every answer against the truth the driver derives
// from its own inputs. Answers read while load runs (the fleet
// dashboard) see a state somewhere between what was acknowledged before
// the read was sent (lo) and what had been sent when its reply arrived
// (hi); each check accepts any state in that interval and nothing
// outside it.

// zBand is the width, in standard deviations, of the statistical bands
// (kept/fed and the subset sum): wide enough that a correct daemon
// fails about once in 10^8 checks.
const zBand = 6

// checkF0 applies Lemma 8: the Algorithm 2 estimate lies within a factor
// 4/sqrt(p) of F0(P).
func checkF0(est float64, truth int, p float64) error {
	bound := 4 / math.Sqrt(p)
	if !(est >= float64(truth)/bound && est <= float64(truth)*bound) {
		return fmt.Errorf("f0 %.0f outside Lemma 8 band [%.0f, %.0f] of truth %d",
			est, float64(truth)/bound, float64(truth)*bound, truth)
	}
	return nil
}

// checkFed checks a reported fed count against the items sent.
func checkFed(fed uint64, lo, hi int64) error {
	if int64(fed) < lo || int64(fed) > hi {
		return fmt.Errorf("fed %d outside sent range [%d, %d]", fed, lo, hi)
	}
	return nil
}

// checkKept checks that kept/fed is a plausible Binomial(fed, p) draw.
func checkKept(fed, kept uint64, p float64) error {
	mean := p * float64(fed)
	sd := math.Sqrt(float64(fed) * p * (1 - p))
	if math.Abs(float64(kept)-mean) > zBand*sd+1 {
		return fmt.Errorf("kept %d of fed %d is outside the binomial band around p=%g", kept, fed, p)
	}
	return nil
}

// checkHitters applies Theorem 6 to an hh1 report over the whole
// sampled pool: every item with f_i >= alpha*F1(P) is reported, no item
// with f_i < (1-eps)*alpha*F1(P) is, and each reported frequency is
// within (1 +- eps) of the truth.
func checkHitters(rep estimator.Report, sp *sampledPool, alpha, eps float64) error {
	f1 := float64(sp.f1)
	reported := make(map[uint64]float64, len(rep.F1Hitters))
	for _, h := range rep.F1Hitters {
		reported[uint64(h.Item)] = h.Freq
	}
	for key, n := range sp.cand {
		f := float64(n)
		est, ok := reported[key]
		switch {
		case !ok && f >= alpha*f1:
			return fmt.Errorf("hitter %d (f=%.0f, F1=%.0f) not reported", key, f, f1)
		case ok && f < (1-eps)*alpha*f1:
			return fmt.Errorf("item %d (f=%.0f) reported below (1-eps)*alpha*F1=%.0f", key, f, (1-eps)*alpha*f1)
		case ok && (est < (1-eps)*f || est > (1+eps)*f):
			return fmt.Errorf("hitter %d frequency %.0f outside (1+-eps) of %.0f", key, est, f)
		}
		delete(reported, key)
	}
	for key := range reported {
		// Not a candidate: its share of P is under hitterCandidateShare.
		return fmt.Errorf("item %d reported with share under %g", key, hitterCandidateShare)
	}
	return nil
}

// shipped is the truth behind the collector's retained weighted state:
// what every agent had been sent as of its newest accepted flush.
type shipped struct {
	subset   float64 // P weight in 10.0.0.0/8
	subsetSq float64 // sum of squared P weights in 10.0.0.0/8
}

// subsetAnswer is one collector subset-sum reply with the truth interval
// it was read under; it is judged after the run, once the VarOpt
// threshold the tolerance needs is known.
type subsetAnswer struct {
	value  float64
	lo, hi shipped
}

// varOptTau returns the expected VarOpt threshold tau of a k-slot
// reservoir over the Bernoulli(p) sample of a multiset of weights, given
// as pool bodies with multiplicities: the tau solving
// sum_i p*mult_i*min(1, w_i/tau) = k.
func varOptTau(wp *weightedPool, mult []int64, p float64, k int) float64 {
	expect := func(tau float64) float64 {
		var s float64
		for b, items := range wp.items {
			if mult[b] == 0 {
				continue
			}
			var sb float64
			for _, it := range items {
				sb += math.Min(1, it.Weight/tau)
			}
			s += p * float64(mult[b]) * sb
		}
		return s
	}
	lo, hi := 1e-9, 1.0
	for expect(hi) > float64(k) {
		hi *= 2
	}
	for i := 0; i < 100 && hi-lo > 1e-9*hi; i++ {
		mid := (lo + hi) / 2
		if expect(mid) > float64(k) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// checkSubsetSum judges a collector subset sum. The varopt stat does not
// rescale by 1/p, so its Horvitz-Thompson sum estimates the weight of
// the sampled stream L in the prefix, whose mean is p times the P
// weight. Two noise terms widen the band: Bernoulli sampling, with
// variance p(1-p)*sum(w^2), and the two VarOpt stages (agent reservoir,
// collector merge), each with variance at most tau*W(L subset); tau is
// bounded by twice the expected threshold of the merged reservoir.
func checkSubsetSum(a subsetAnswer, p, tau float64) error {
	sd := math.Sqrt(p*(1-p)*a.hi.subsetSq + 2*(2*tau)*p*a.hi.subset)
	lo, hi := p*a.lo.subset-zBand*sd, p*a.hi.subset+zBand*sd
	if a.value < lo || a.value > hi {
		return fmt.Errorf("subset sum %.4g outside [%.4g, %.4g] (truth p*W in [%.4g, %.4g])",
			a.value, lo, hi, p*a.lo.subset, p*a.hi.subset)
	}
	return nil
}
