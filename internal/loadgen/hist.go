package loadgen

import (
	"math"
	"math/bits"
	"time"
)

// Hist is an HDR-style log-linear latency histogram: values (nanoseconds)
// are bucketed into 64 linear sub-buckets per power of two, which bounds the
// relative quantile error at ~1.6% across the full range — microsecond cache
// hits and multi-second stalls share one compact array. Unlike a fixed
// bucket list it never saturates: any int64 value lands in a real bucket.
//
// Hist is not safe for concurrent use; the runner gives each worker its own
// and merges them at the end, keeping the record path allocation- and
// contention-free.
type Hist struct {
	counts [histBuckets]uint64
	count  uint64
	max    int64
	min    int64
}

const (
	// histSubBits buckets each power of two into 2^histSubBits linear
	// sub-buckets (64 → ≤ 1/64 relative width).
	histSubBits = 6
	histSub     = 1 << histSubBits
	// 64-bit values span at most 64-histSubBits "exponent rows" above the
	// dense linear first row.
	histBuckets = (64 - histSubBits) * histSub
)

// NewHist returns an empty histogram.
func NewHist() *Hist { return &Hist{min: -1} }

// histIndex maps a non-negative value to its bucket.
func histIndex(v int64) int {
	if v < histSub {
		return int(v) // first row is exact: 0..63ns
	}
	exp := 63 - bits.LeadingZeros64(uint64(v)) // floor(log2 v), >= histSubBits
	sub := int(v>>(uint(exp)-histSubBits)) & (histSub - 1)
	return (exp-histSubBits+1)*histSub + sub
}

// histLower returns the inclusive lower bound of bucket i; values in bucket
// i satisfy lower <= v < histLower(i+1).
func histLower(i int) int64 {
	row := i / histSub
	sub := i % histSub
	if row == 0 {
		return int64(sub)
	}
	exp := uint(row - 1 + histSubBits)
	return (int64(histSub) + int64(sub)) << (exp - histSubBits)
}

// Record adds one latency observation.
func (h *Hist) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(v)]++
	h.count++
	if v > h.max {
		h.max = v
	}
	if h.min < 0 || v < h.min {
		h.min = v
	}
}

// Merge folds other into h.
func (h *Hist) Merge(other *Hist) {
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.count += other.count
	if other.max > h.max {
		h.max = other.max
	}
	if other.min >= 0 && (h.min < 0 || other.min < h.min) {
		h.min = other.min
	}
}

// Quantile returns the value at quantile q in [0, 1] by the nearest-rank
// definition (the ceil(q*count)-th smallest observation): the midpoint of
// the bucket holding that observation, within the bucket's ~1.6% relative
// width of the true order statistic.
func (h *Hist) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	target := rank - 1
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum > target {
			lo := histLower(i)
			hi := h.max
			if i+1 < histBuckets {
				hi = histLower(i + 1)
			}
			mid := lo + (hi-lo)/2
			if mid > h.max {
				mid = h.max // never report beyond the observed maximum
			}
			return time.Duration(mid)
		}
	}
	return time.Duration(h.max)
}
