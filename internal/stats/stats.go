// Package stats provides the distribution machinery behind the paper's
// figures: empirical CDFs (Figures 6 and 7), survival curves (Figure 8),
// monthly bucketed series (Figures 4 and 5), and summary statistics.
package stats

import (
	"math"
	"sort"

	"stalecert/internal/simtime"
)

// CDF is an empirical cumulative distribution over float64 samples.
// The zero value is an empty distribution; Add samples then query.
type CDF struct {
	samples []float64
	sorted  bool
}

// Add appends a sample.
func (c *CDF) Add(v float64) {
	c.samples = append(c.samples, v)
	c.sorted = false
}

// AddInt appends an integer sample.
func (c *CDF) AddInt(v int) { c.Add(float64(v)) }

func (c *CDF) sort() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.samples) }

// At returns P(X <= x), 0 for an empty distribution.
func (c *CDF) At(x float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.sort()
	i := sort.SearchFloat64s(c.samples, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.samples))
}

// Quantile returns the q-th quantile (q in [0,1]) using the nearest-rank
// method; NaN for an empty distribution.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	c.sort()
	if q <= 0 {
		return c.samples[0]
	}
	if q >= 1 {
		return c.samples[len(c.samples)-1]
	}
	rank := int(math.Ceil(q*float64(len(c.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	return c.samples[rank]
}

// Median returns the 0.5 quantile.
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// Point is one (x, y) pair of a rendered curve.
type Point struct {
	X float64
	Y float64
}

// Curve renders the CDF as points at the given x positions.
func (c *CDF) Curve(xs []float64) []Point {
	out := make([]Point, len(xs))
	for i, x := range xs {
		out[i] = Point{X: x, Y: c.At(x)}
	}
	return out
}

// SurvivalAt returns P(X > x) = 1 - CDF(x), the survival function of
// Figure 8.
func (c *CDF) SurvivalAt(x float64) float64 { return 1 - c.At(x) }

// SurvivalCurve renders the survival function at the given x positions.
func (c *CDF) SurvivalCurve(xs []float64) []Point {
	out := make([]Point, len(xs))
	for i, x := range xs {
		out[i] = Point{X: x, Y: c.SurvivalAt(x)}
	}
	return out
}

// Range returns n+1 evenly spaced values covering [lo, hi].
func Range(lo, hi float64, n int) []float64 {
	if n < 1 {
		return []float64{lo}
	}
	out := make([]float64, n+1)
	step := (hi - lo) / float64(n)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}

// MonthlySeries buckets event counts by calendar month, optionally split by
// a string key (CA name, issuer name) — the shape of Figures 4, 5a and 5b.
type MonthlySeries struct {
	counts map[string]map[simtime.Month]int
}

// NewMonthlySeries creates an empty series.
func NewMonthlySeries() *MonthlySeries {
	return &MonthlySeries{counts: make(map[string]map[simtime.Month]int)}
}

// Add counts one event for a key in the month containing day.
func (s *MonthlySeries) Add(key string, day simtime.Day) { s.AddN(key, day, 1) }

// AddN counts n events.
func (s *MonthlySeries) AddN(key string, day simtime.Day, n int) {
	m := s.counts[key]
	if m == nil {
		m = make(map[simtime.Month]int)
		s.counts[key] = m
	}
	m[day.Month()] += n
}

// Keys returns the series keys, sorted.
func (s *MonthlySeries) Keys() []string {
	out := make([]string, 0, len(s.counts))
	for k := range s.counts {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Months returns every month with data across all keys, sorted.
func (s *MonthlySeries) Months() []simtime.Month {
	seen := make(map[simtime.Month]bool)
	for _, m := range s.counts {
		for mo := range m {
			seen[mo] = true
		}
	}
	out := make([]simtime.Month, 0, len(seen))
	for mo := range seen {
		out = append(out, mo)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Count returns the events for (key, month).
func (s *MonthlySeries) Count(key string, m simtime.Month) int { return s.counts[key][m] }
