package main

import (
	"bytes"
	"testing"

	"substream/internal/stream"
)

func bodiesOf(items []stream.Slice) [][]byte {
	out := make([][]byte, len(items))
	for i, it := range items {
		out[i] = encodeKeys(it)
	}
	return out
}

func sameBodies(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// The seed alone decides every input byte: equal seeds give identical
// pools, different seeds give different ones.
func TestInputsFollowSeed(t *testing.T) {
	pools := map[string]func(seed uint64) [][]byte{
		"keys":     func(seed uint64) [][]byte { return newKeyPool(seed).bodies },
		"sampled":  func(seed uint64) [][]byte { return bodiesOf(newSampledPool(seed).items) },
		"weighted": func(seed uint64) [][]byte { return newWeightedPool(seed).bodies },
	}
	for name, gen := range pools {
		a, b, c := gen(7), gen(7), gen(8)
		if len(a) != poolBodies {
			t.Fatalf("%s: %d bodies, want %d", name, len(a), poolBodies)
		}
		if !sameBodies(a, b) {
			t.Errorf("%s: seed 7 gave different bytes on two calls", name)
		}
		if sameBodies(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave identical bytes", name)
		}
	}
}

// The sampled pool's truth agrees with its own bodies: L is about hh1P
// of P, and the heaviest keys are candidates.
func TestSampledPoolTruth(t *testing.T) {
	sp := newSampledPool(3)
	lTotal := int64(poolBodies * bodyItems)
	if got := float64(lTotal) / float64(sp.f1); got < hh1P*0.98 || got > hh1P*1.02 {
		t.Fatalf("L/P = %.4f, want about %g", got, hh1P)
	}
	if len(sp.cand) == 0 {
		t.Fatalf("no hitter candidates at share %g", hitterCandidateShare)
	}
	for k, n := range sp.cand {
		if float64(n) < hitterCandidateShare*float64(sp.f1) {
			t.Errorf("candidate %d below the candidate share", k)
		}
	}
}

func TestKeysAreNonZeroIPv4(t *testing.T) {
	m := keyMap{salt: 99}
	inside := 0
	for r := uint64(0); r < 10000; r++ {
		k := m.key(r)
		if k == 0 || k>>32 != 0 {
			t.Fatalf("rank %d maps to %#x, want a non-zero 32-bit key", r, k)
		}
		if inSubset(k) {
			inside++
		}
	}
	if inside < 2000 || inside > 3000 {
		t.Errorf("%d of 10000 keys in %s, want about a quarter", inside, subsetPrefix)
	}
}
