package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stalecert/internal/loadgen"
)

// sample is one completed request: how long the client spent on it, from
// asking for it to the last byte, and whether it failed.
type sample struct {
	Dur    time.Duration
	Failed bool
}

// recorder keeps every request's raw latency. loadgen.Hist rounds to 1/64 of
// a power of two, which is too coarse to compare medians a few percent apart,
// so percentiles are taken over the raw values instead. Two clients append
// under a mutex a few thousand times a second each; they do not contend.
type recorder struct {
	mu      sync.Mutex
	samples []sample
}

func newRecorder() *recorder {
	return &recorder{samples: make([]sample, 0, 1<<17)} // a hot window's worth; it grows if it must
}

func (r *recorder) record(dur time.Duration, failed bool) {
	r.mu.Lock()
	r.samples = append(r.samples, sample{Dur: dur, Failed: failed})
	r.mu.Unlock()
}

// add appends other's samples; other is no longer being written to.
func (r *recorder) add(other *recorder) {
	r.mu.Lock()
	r.samples = append(r.samples, other.samples...)
	r.mu.Unlock()
}

// stats summarises what a closed loop of `workers` clients recorded.
func (r *recorder) stats(workers int) windowStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return summarize(r.samples, workers)
}

// quantile is the nearest-rank q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// medianOf sorts durs in place and returns their median.
func medianOf(durs []time.Duration) time.Duration {
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return quantile(durs, 0.5)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// windowStats summarises the requests one side of a closed loop completed.
type windowStats struct {
	Attempted, Failed int
	RPS               float64 // requests completed per second of the clients' time
	Mean, P50         time.Duration
	P95, P99          time.Duration
}

// beyond is how many samples lie above the q-quantile: how well the run
// supports that percentile.
func (st windowStats) beyond(q float64) int {
	return st.Attempted - int(math.Ceil(q*float64(st.Attempted)))
}

// summarize reduces the samples of a closed loop. Each of its `workers`
// clients asks for its next request the moment the last one returns, so the
// time the clients spent on these requests is the sum of their durations
// shared among the workers, and the rate is the count over that. It needs no
// window edge: a request counts whole wherever it began, which also makes it
// right for one side of an interleaved run.
func summarize(samples []sample, workers int) windowStats {
	var st windowStats
	durs := make([]time.Duration, 0, len(samples))
	var total time.Duration
	for _, s := range samples {
		st.Attempted++
		if s.Failed {
			st.Failed++
		}
		durs = append(durs, s.Dur)
		total += s.Dur
	}
	if len(durs) == 0 {
		return st
	}
	st.Mean = total / time.Duration(len(durs))
	st.RPS = float64(workers) * float64(len(durs)) / total.Seconds()
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	st.P50 = quantile(durs, 0.50)
	st.P95 = quantile(durs, 0.95)
	st.P99 = quantile(durs, 0.99)
	return st
}

// keyRing is a precomputed Zipf rank sequence shared by the client
// goroutines: deterministic in its seed, and drawn with one atomic add, so
// two clients never contend on (or race over) a generator's state.
type keyRing struct {
	ranks []int32
	next  atomic.Uint64
}

const keyRingLen = 1 << 16

func newKeyRing(seed uint64, n int, s float64) (*keyRing, error) {
	z, err := loadgen.NewZipf(seed, n, s)
	if err != nil {
		return nil, err
	}
	k := &keyRing{ranks: make([]int32, keyRingLen)}
	for i := range k.ranks {
		k.ranks[i] = int32(z.Next())
	}
	return k, nil
}

func (k *keyRing) pick() int {
	return int(k.ranks[(k.next.Add(1)-1)%uint64(len(k.ranks))])
}
