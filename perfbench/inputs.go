package main

import (
	"encoding/binary"
	"math"
	rand "math/rand/v2"

	"substream/internal/stream"
)

// Every byte the daemons receive is generated here, from the seed alone,
// before any role is built. Bodies are fixed pools that the drivers send
// round-robin, so the truth behind any answer is a function of how many
// bodies were sent, which the oracle (oracle.go) computes exactly.
const (
	zipfS      = 1.1
	keySpace   = 1 << 20
	bodyItems  = 4096
	poolBodies = 256

	// hh1P is the sampling rate of the hh1 replay's input: the driver
	// Bernoulli-samples the original stream P itself (see sampledPool).
	hh1P = 0.25

	// Pareto(xm, shape) byte counts, capped, for the weighted records.
	paretoXm    = 64
	paretoShape = 1.5
	paretoCap   = 1 << 20

	// hitterCandidateShare is the pool share above which a key's prefix
	// counts are tracked: far below the (1-eps)*alpha exclusion line, so a
	// reported hitter outside the candidates is a violation on its face.
	hitterCandidateShare = 0.01
)

// Generator streams. Each input family draws from its own PCG stream so
// adding one family never shifts another's bytes.
const (
	streamKeys uint64 = iota + 1
	streamSample
	streamWeights
	streamKeyMap
)

// keyMap scatters Zipf ranks over IPv4-shaped keys: the address sits in
// the low 32 bits, and about a quarter of the ranks land in 10.0.0.0/8,
// the prefix the fleet dashboard asks about. Keys are never zero (the
// first octet is at least 10), which the ingest codec requires.
type keyMap struct{ salt uint64 }

func (m keyMap) key(rank uint64) uint64 {
	h := splitmix64(rank ^ m.salt)
	octet := 11 + (h>>8)%213
	if h%4 == 0 {
		octet = 10
	}
	return octet<<24 | (h>>32)&0xffffff
}

// inSubset reports whether a key's address lies in 10.0.0.0/8.
func inSubset(key uint64) bool { return (key&0xffffffff)>>24 == 10 }

const subsetPrefix = "10.0.0.0/8"

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// keyGen draws Zipf(zipfS) ranks over keySpace keys and maps them to keys.
type keyGen struct {
	zipf *rand.Zipf
	keys keyMap
}

func newKeyGen(seed uint64) *keyGen {
	r := rand.New(rand.NewPCG(seed, streamKeys))
	salt := rand.New(rand.NewPCG(seed, streamKeyMap)).Uint64()
	return &keyGen{zipf: rand.NewZipf(r, zipfS, 1, keySpace-1), keys: keyMap{salt: salt}}
}

func (g *keyGen) next() uint64 { return g.keys.key(g.zipf.Uint64()) }

// keyPool is a pool of unweighted binary ingest bodies.
type keyPool struct {
	bodies   [][]byte       // 8-byte little-endian keys, bodyItems each
	items    []stream.Slice // the same keys, per body, for the layer replay
	distinct int            // F0 of the whole pool
}

// newKeyPool draws poolBodies bodies of bodyItems Zipf keys.
func newKeyPool(seed uint64) *keyPool {
	g := newKeyGen(seed)
	p := &keyPool{}
	seen := make(map[uint64]struct{})
	for b := 0; b < poolBodies; b++ {
		items := make(stream.Slice, bodyItems)
		for i := range items {
			k := g.next()
			items[i] = stream.Item(k)
			seen[k] = struct{}{}
		}
		p.items = append(p.items, items)
		p.bodies = append(p.bodies, encodeKeys(items))
	}
	p.distinct = len(seen)
	return p
}

func encodeKeys(items stream.Slice) []byte {
	out := make([]byte, 8*len(items))
	for i, it := range items {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(it))
	}
	return out
}

// sampledPool is the input of the hh1 replay, in the setting of
// Theorem 6: the driver draws the original stream P from the seed's key
// generator, Bernoulli-samples it at hh1P, and chops the sampled stream
// L into bodies. The estimator sees only L; the truth is P.
type sampledPool struct {
	items []stream.Slice // L, bodyItems per body
	f1    int64          // F1(P) behind the whole pool
	// cand holds, for each key whose share of P is at least
	// hitterCandidateShare, its frequency in P.
	cand map[uint64]int64
}

func newSampledPool(seed uint64) *sampledPool {
	g := newKeyGen(seed)
	coin := rand.New(rand.NewPCG(seed, streamSample))
	sp := &sampledPool{cand: make(map[uint64]int64)}
	counts := make(map[uint64]int64)
	for b := 0; b < poolBodies; b++ {
		items := make(stream.Slice, 0, bodyItems)
		for len(items) < bodyItems {
			k := g.next()
			counts[k]++
			sp.f1++
			if coin.Float64() < hh1P {
				items = append(items, stream.Item(k))
			}
		}
		sp.items = append(sp.items, items)
	}
	for k, n := range counts {
		if float64(n) >= hitterCandidateShare*float64(sp.f1) {
			sp.cand[k] = n
		}
	}
	return sp
}

// weightedPool is a pool of weighted binary bodies (8-byte key, 8-byte
// float64 weight) with each body's subset totals precomputed.
type weightedPool struct {
	bodies [][]byte
	items  []stream.WSlice
	// Per body: total weight, weight in 10.0.0.0/8, and the sum of
	// squared weights in 10.0.0.0/8 (the Bernoulli variance term).
	total, subset, subsetSq []float64
}

func newWeightedPool(seed uint64) *weightedPool {
	g := newKeyGen(seed ^ 0x5bd1e995)
	r := rand.New(rand.NewPCG(seed, streamWeights))
	wp := &weightedPool{}
	for b := 0; b < poolBodies; b++ {
		items := make(stream.WSlice, bodyItems)
		body := make([]byte, 16*bodyItems)
		var tot, sub, sq float64
		for i := range items {
			k := g.next()
			w := math.Min(paretoXm/math.Pow(1-r.Float64(), 1/paretoShape), paretoCap)
			items[i] = stream.WItem{Key: stream.Item(k), Weight: w}
			binary.LittleEndian.PutUint64(body[16*i:], k)
			binary.LittleEndian.PutUint64(body[16*i+8:], math.Float64bits(w))
			tot += w
			if inSubset(k) {
				sub += w
				sq += w * w
			}
		}
		wp.items = append(wp.items, items)
		wp.bodies = append(wp.bodies, body)
		wp.total = append(wp.total, tot)
		wp.subset = append(wp.subset, sub)
		wp.subsetSq = append(wp.subsetSq, sq)
	}
	return wp
}
