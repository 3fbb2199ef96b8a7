package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"stalecert/internal/simtime"
)

func cdfOf(samples ...float64) *CDF {
	c := &CDF{}
	for _, v := range samples {
		c.Add(v)
	}
	return c
}

func TestCDFBasics(t *testing.T) {
	c := cdfOf(1, 2, 3, 4)
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {100, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if c.Median() != 2 {
		t.Errorf("Median = %v", c.Median())
	}
	if c.N() != 4 {
		t.Errorf("N = %d", c.N())
	}
}

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if c.At(5) != 0 {
		t.Error("empty At != 0")
	}
	if !math.IsNaN(c.Median()) {
		t.Error("empty median should be NaN")
	}
}

func TestCDFAddUnsorted(t *testing.T) {
	var c CDF
	for _, v := range []float64{5, 1, 3} {
		c.Add(v)
	}
	if c.At(2) != 1.0/3 {
		t.Errorf("At(2) = %v", c.At(2))
	}
	c.AddInt(0)
	if c.At(0) != 0.25 {
		t.Errorf("after AddInt: At(0) = %v", c.At(0))
	}
}

func TestQuantiles(t *testing.T) {
	c := cdfOf(10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
	if got := c.Quantile(0.5); got != 50 {
		t.Errorf("q50 = %v", got)
	}
	if got := c.Quantile(0.9); got != 90 {
		t.Errorf("q90 = %v", got)
	}
	if got := c.Quantile(0); got != 10 {
		t.Errorf("q0 = %v", got)
	}
	if got := c.Quantile(1); got != 100 {
		t.Errorf("q1 = %v", got)
	}
}

func TestSurvival(t *testing.T) {
	c := cdfOf(10, 100, 1000)
	if got := c.SurvivalAt(10); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("S(10) = %v", got)
	}
	curve := c.SurvivalCurve([]float64{0, 10, 100, 1000})
	if curve[0].Y != 1 || curve[3].Y != 0 {
		t.Errorf("survival curve endpoints = %+v", curve)
	}
}

func TestCurveMonotone(t *testing.T) {
	c := cdfOf(3, 1, 4, 1, 5, 9, 2, 6)
	pts := c.Curve(Range(0, 10, 20))
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			t.Fatalf("CDF not monotone at %d: %+v", i, pts[i-1:i+1])
		}
	}
}

func TestRange(t *testing.T) {
	r := Range(0, 10, 5)
	if len(r) != 6 || r[0] != 0 || r[5] != 10 || r[3] != 6 {
		t.Fatalf("Range = %v", r)
	}
	if got := Range(5, 9, 0); len(got) != 1 || got[0] != 5 {
		t.Fatalf("Range n=0 = %v", got)
	}
}

func TestMonthlySeries(t *testing.T) {
	s := NewMonthlySeries()
	nov21 := simtime.MustParse("2021-11-15")
	dec21 := simtime.MustParse("2021-12-01")
	jul22 := simtime.MustParse("2022-07-20")
	s.AddN("GoDaddy", nov21, 100)
	s.AddN("GoDaddy", dec21, 80)
	s.Add("ISRG (Let's Encrypt)", jul22)

	if got := s.Count("GoDaddy", simtime.MonthOf(2021, time.November)); got != 100 {
		t.Errorf("count = %d", got)
	}
	if got := s.Count("GoDaddy", simtime.MonthOf(2021, time.December)); got != 80 {
		t.Errorf("december count = %d", got)
	}
	if keys := s.Keys(); len(keys) != 2 || keys[0] != "GoDaddy" {
		t.Errorf("keys = %v", keys)
	}
	months := s.Months()
	if len(months) != 3 || months[0] != simtime.MonthOf(2021, time.November) {
		t.Errorf("months = %v", months)
	}
}

func TestQuickCDFBounds(t *testing.T) {
	f := func(vals []float64, x float64) bool {
		c := cdfOf(vals...)
		p := c.At(x)
		return p >= 0 && p <= 1 && c.SurvivalAt(x) == 1-p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickQuantileWithinSamples(t *testing.T) {
	f := func(vals []float64, q float64) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) {
				return true
			}
		}
		q = math.Mod(math.Abs(q), 1)
		c := cdfOf(vals...)
		got := c.Quantile(q)
		lo, hi := c.Quantile(0), c.Quantile(1)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMedianAtLeastHalf(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) {
				return true
			}
		}
		c := cdfOf(vals...)
		return c.At(c.Median()) >= 0.5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
