// Package loadgen is the stdlib-only load-generation toolkit the benchmark
// harness and the fleet tests drive: a deterministic seeded Zipf key-rank
// generator (real query traffic concentrates on a small hot set of domains),
// a coordinated-omission-resistant HDR-style latency histogram, and an
// open/closed-loop request runner.
package loadgen

import (
	"fmt"
	"math"
	"sort"
)

// splitmix64 is the PRNG used throughout the package: tiny, fast, and —
// unlike math/rand internals — fully specified here, so a seed reproduces
// the identical request sequence on every platform and Go version.
type splitmix64 struct{ state uint64 }

func newSplitmix64(seed uint64) *splitmix64 { return &splitmix64{state: seed} }

// next returns the next 64 pseudo-random bits.
func (s *splitmix64) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64v returns a uniform float in [0, 1).
func (s *splitmix64) float64v() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// Zipf draws ranks 0..N-1 with probability proportional to 1/(rank+1)^S —
// rank 0 is the hottest key. Unlike math/rand's Zipf it accepts any exponent
// S > 0 (web traffic is typically S ≈ 0.9–1.1, below math/rand's s > 1
// floor) and is deterministic across Go releases: the CDF is precomputed and
// inverted by binary search over draws from an in-package splitmix64.
type Zipf struct {
	rng *splitmix64
	cdf []float64 // cdf[i] = P(rank <= i), cdf[n-1] == 1
}

// NewZipf builds a generator over n ranks with exponent s, seeded
// deterministically.
func NewZipf(seed uint64, n int, s float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("loadgen: zipf needs n > 0, got %d", n)
	}
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return nil, fmt.Errorf("loadgen: zipf needs exponent > 0, got %v", s)
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against rounding leaving the tail unreachable
	return &Zipf{rng: newSplitmix64(seed), cdf: cdf}, nil
}

// Next draws the next rank in [0, n).
func (z *Zipf) Next() int {
	u := z.rng.float64v()
	return sort.SearchFloat64s(z.cdf, u)
}
