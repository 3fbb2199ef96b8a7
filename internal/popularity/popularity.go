// Package popularity stands in for the Alexa Top 1M lists behind Table 6:
// Zipf-flavoured rank lists sampled biannually, and the "most popular rank a
// domain ever held" lookup the paper buckets stale-certificate domains with.
package popularity

import (
	"math/rand"
	"sort"

	"stalecert/internal/simtime"
)

// List is one ranking sample: rank 1 is the most popular e2LD.
type List struct {
	Date  simtime.Day
	ranks map[string]int
}

// NewList builds a list from domains in rank order (index 0 = rank 1).
func NewList(date simtime.Day, ranked []string) *List {
	l := &List{Date: date, ranks: make(map[string]int, len(ranked))}
	for i, d := range ranked {
		if _, ok := l.ranks[d]; !ok {
			l.ranks[d] = i + 1
		}
	}
	return l
}

// Rank returns a domain's rank in this sample.
func (l *List) Rank(domain string) (int, bool) {
	r, ok := l.ranks[domain]
	return r, ok
}

// Len returns the list size.
func (l *List) Len() int { return len(l.ranks) }

// Samples is a time series of biannual ranking lists.
type Samples struct {
	lists []*List
}

// Add appends a sample (kept sorted by date).
func (s *Samples) Add(l *List) {
	s.lists = append(s.lists, l)
	sort.Slice(s.lists, func(i, j int) bool { return s.lists[i].Date < s.lists[j].Date })
}

// BestRank returns the lowest (most popular) rank the domain held across all
// samples, as the paper does for Table 6.
func (s *Samples) BestRank(domain string) (int, bool) {
	best := 0
	for _, l := range s.lists {
		if r, ok := l.Rank(domain); ok && (best == 0 || r < best) {
			best = r
		}
	}
	return best, best != 0
}

// Buckets are Table 6's popularity tiers.
var Buckets = []int{1_000, 10_000, 100_000, 1_000_000}

// BucketCounts tallies, for a set of domains, how many fall within each
// popularity tier (cumulative, as the paper reports "Top 1K / 10K / ...").
func (s *Samples) BucketCounts(domains []string) []int {
	out := make([]int, len(Buckets))
	for _, d := range domains {
		r, ok := s.BestRank(d)
		if !ok {
			continue
		}
		for i, b := range Buckets {
			if r <= b {
				out[i]++
			}
		}
	}
	return out
}

// GenerateBiannual builds biannual samples between two days. Popularity is
// sticky: a base permutation of the domain pool shifts slightly between
// samples (swap churn), approximating how Alexa ranks move. The pool is
// ranked in full; callers with fewer than listSize domains get shorter lists.
func GenerateBiannual(rng *rand.Rand, pool []string, from, to simtime.Day, listSize int) *Samples {
	ranked := append([]string(nil), pool...)
	rng.Shuffle(len(ranked), func(i, j int) { ranked[i], ranked[j] = ranked[j], ranked[i] })
	s := &Samples{}
	const halfYear = 182
	for day := from; day <= to; day += halfYear {
		// Churn: swap ~5% of adjacent-ish positions.
		for k := 0; k < len(ranked)/20; k++ {
			i := rng.Intn(len(ranked))
			j := i + rng.Intn(50) - 25
			if j < 0 || j >= len(ranked) {
				continue
			}
			ranked[i], ranked[j] = ranked[j], ranked[i]
		}
		n := listSize
		if n > len(ranked) {
			n = len(ranked)
		}
		s.Add(NewList(day, ranked[:n]))
	}
	return s
}
