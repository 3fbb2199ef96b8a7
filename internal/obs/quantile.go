package obs

import (
	"math"
	"sort"
)

// QuantileBucket is one cumulative histogram bucket with a float count — counts
// stay floats so quantiles over rate() output keep their precision.
type QuantileBucket struct {
	Bound    float64
	Count    float64
	Exemplar *Exemplar
}

// Quantile estimates the q-quantile from cumulative histogram buckets,
// interpolating linearly inside the bucket the quantile lands in — the same
// estimate Prometheus' histogram_quantile makes over the exposition format —
// and returns the exemplar of that bucket.
func Quantile(q float64, buckets []QuantileBucket) (float64, *Exemplar) {
	if len(buckets) == 0 || q < 0 || q > 1 {
		return math.NaN(), nil
	}
	bs := make([]QuantileBucket, len(buckets))
	copy(bs, buckets)
	sort.Slice(bs, func(i, j int) bool { return bs[i].Bound < bs[j].Bound })
	total := bs[len(bs)-1].Count
	if total <= 0 {
		return math.NaN(), nil
	}
	rank := q * total
	idx := 0
	for idx < len(bs)-1 && bs[idx].Count < rank {
		idx++
	}
	b := bs[idx]
	if math.IsInf(b.Bound, 1) {
		// The quantile lands in the overflow bucket: the best bounded answer
		// is the highest finite bound.
		if idx == 0 {
			return math.NaN(), b.Exemplar
		}
		return bs[idx-1].Bound, b.Exemplar
	}
	lower, prevCount := 0.0, 0.0
	if idx > 0 {
		lower = bs[idx-1].Bound
		prevCount = bs[idx-1].Count
	}
	inBucket := b.Count - prevCount
	if inBucket <= 0 {
		return b.Bound, b.Exemplar
	}
	return lower + (b.Bound-lower)*(rank-prevCount)/inBucket, b.Exemplar
}
