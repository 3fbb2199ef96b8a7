package obs

import (
	"math"
	"testing"
)

func TestHistogramQuantileExported(t *testing.T) {
	buckets := []QuantileBucket{
		{Bound: 1, Count: 50},
		{Bound: 2, Count: 100},
		{Bound: math.Inf(1), Count: 100},
	}
	if got, _ := Quantile(0.5, buckets); math.Abs(got-1) > 1e-9 {
		t.Errorf("p50 = %v, want 1", got)
	}
	if got, _ := Quantile(0.75, buckets); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("p75 = %v, want 1.5", got)
	}
	if got, _ := Quantile(0.5, nil); !math.IsNaN(got) {
		t.Errorf("empty buckets = %v, want NaN", got)
	}
}
