package loadgen

import (
	"math"
	"testing"
	"time"
)

// The tests read a histogram's count and maximum through these; nothing that
// ships needs them.

// Count returns the number of recorded observations.
func (h *Hist) Count() uint64 { return h.count }

// Max returns the largest recorded value (0 when empty).
func (h *Hist) Max() time.Duration { return time.Duration(h.max) }

// TestHistQuantileUniform feeds a known uniform distribution (1µs..100ms in
// 1µs steps) and checks the recovered quantiles land within the histogram's
// ~1.6% relative bucket width of the exact order statistics.
func TestHistQuantileUniform(t *testing.T) {
	h := NewHist()
	const n = 100000
	for i := 1; i <= n; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != n {
		t.Fatalf("count = %d, want %d", h.Count(), n)
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 50000 * time.Microsecond},
		{0.90, 90000 * time.Microsecond},
		{0.99, 99000 * time.Microsecond},
		{0.999, 99900 * time.Microsecond},
	} {
		got := h.Quantile(tc.q)
		relErr := math.Abs(float64(got-tc.want)) / float64(tc.want)
		if relErr > 0.02 {
			t.Errorf("q%.3f = %v, want ≈ %v (rel err %.3f)", tc.q, got, tc.want, relErr)
		}
	}
	if h.Max() != 100000*time.Microsecond {
		t.Errorf("max = %v, want 100ms", h.Max())
	}
}

// TestHistQuantileBimodal models a cache-hit/cache-miss split: 99% of
// observations at ~100µs, 1% at ~300ms. p50 must report the fast mode and
// p999 the slow one — the shape the fixed DurationBuckets default blurs.
func TestHistQuantileBimodal(t *testing.T) {
	h := NewHist()
	for i := 0; i < 9900; i++ {
		h.Record(100 * time.Microsecond)
	}
	for i := 0; i < 100; i++ {
		h.Record(300 * time.Millisecond)
	}
	if p50 := h.Quantile(0.50); p50 > 110*time.Microsecond {
		t.Errorf("p50 = %v, want ≈ 100µs", p50)
	}
	if p999 := h.Quantile(0.999); p999 < 290*time.Millisecond {
		t.Errorf("p999 = %v, want ≈ 300ms", p999)
	}
}

func TestHistMerge(t *testing.T) {
	a, b := NewHist(), NewHist()
	for i := 0; i < 1000; i++ {
		a.Record(time.Millisecond)
		b.Record(10 * time.Millisecond)
	}
	a.Merge(b)
	if a.Count() != 2000 {
		t.Fatalf("merged count = %d, want 2000", a.Count())
	}
	if p50 := a.Quantile(0.50); p50 > 2*time.Millisecond {
		t.Errorf("merged p50 = %v, want ≈ 1ms", p50)
	}
	if p99 := a.Quantile(0.99); p99 < 9*time.Millisecond {
		t.Errorf("merged p99 = %v, want ≈ 10ms", p99)
	}
	if a.Max() != 10*time.Millisecond {
		t.Errorf("merged max = %v, want 10ms", a.Max())
	}
}

func TestHistEmptyAndEdge(t *testing.T) {
	h := NewHist()
	if h.Quantile(0.99) != 0 || h.Max() != 0 {
		t.Error("empty histogram should report zeros")
	}
	h.Record(0)
	h.Record(-5) // clamped to 0
	if h.Count() != 2 || h.Quantile(1) != 0 {
		t.Errorf("zero-value records mishandled: count=%d q1=%v", h.Count(), h.Quantile(1))
	}
}

// TestHistBucketInvariant checks index/lower-bound consistency across the
// whole range: every value must land in a bucket whose bounds contain it.
func TestHistBucketInvariant(t *testing.T) {
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1000, 1e6, 1e9, 1e12, math.MaxInt64 / 2} {
		i := histIndex(v)
		lo := histLower(i)
		if v < lo {
			t.Errorf("value %d below its bucket's lower bound %d (bucket %d)", v, lo, i)
		}
		if i+1 < histBuckets {
			if hi := histLower(i + 1); v >= hi {
				t.Errorf("value %d at/above next bucket's lower bound %d (bucket %d)", v, hi, i)
			}
		}
	}
}
