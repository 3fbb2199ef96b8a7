package popularity

import (
	"math/rand"
	"strconv"
	"testing"

	"stalecert/internal/simtime"
)

func TestListRank(t *testing.T) {
	l := NewList(0, []string{"top.com", "second.com", "third.com"})
	if r, ok := l.Rank("top.com"); !ok || r != 1 {
		t.Fatalf("rank = %d %v", r, ok)
	}
	if r, ok := l.Rank("third.com"); !ok || r != 3 {
		t.Fatalf("rank = %d %v", r, ok)
	}
	if _, ok := l.Rank("absent.com"); ok {
		t.Fatal("absent domain ranked")
	}
	if l.Len() != 3 {
		t.Fatal("len")
	}
}

func TestListDuplicateKeepsBestRank(t *testing.T) {
	l := NewList(0, []string{"a.com", "b.com", "a.com"})
	if r, _ := l.Rank("a.com"); r != 1 {
		t.Fatalf("duplicate rank = %d", r)
	}
}

func TestBestRankAcrossSamples(t *testing.T) {
	s := &Samples{}
	s.Add(NewList(simtime.MustParse("2020-01-01"), []string{"a.com", "b.com"}))
	s.Add(NewList(simtime.MustParse("2020-07-01"), []string{"b.com", "a.com"}))
	if r, ok := s.BestRank("a.com"); !ok || r != 1 {
		t.Fatalf("a best = %d %v", r, ok)
	}
	if r, _ := s.BestRank("b.com"); r != 1 {
		t.Fatalf("b best = %d", r)
	}
	if _, ok := s.BestRank("c.com"); ok {
		t.Fatal("unranked domain found")
	}
}

func TestBucketCountsCumulative(t *testing.T) {
	// Build one sample with known ranks.
	ranked := make([]string, 50_000)
	for i := range ranked {
		ranked[i] = "d" + strconv.Itoa(i) + ".com"
	}
	s := &Samples{}
	s.Add(NewList(0, ranked))
	domains := []string{"d0.com", "d999.com", "d5000.com", "d49999.com", "missing.com"}
	got := s.BucketCounts(domains)
	// Top1K: d0,d999 → 2; Top10K adds d5000 → 3; Top100K adds d49999 → 4; Top1M same → 4.
	want := []int{2, 3, 4, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
}

func TestGenerateBiannual(t *testing.T) {
	pool := make([]string, 2000)
	for i := range pool {
		pool[i] = "p" + strconv.Itoa(i) + ".com"
	}
	from := simtime.MustParse("2014-01-01")
	to := simtime.MustParse("2022-01-01")
	s := GenerateBiannual(rand.New(rand.NewSource(3)), pool, from, to, 1000)
	lists := s.lists
	// ~8 years of biannual samples: 17 lists.
	if len(lists) < 15 || len(lists) > 18 {
		t.Fatalf("samples = %d", len(lists))
	}
	for _, l := range lists {
		if l.Len() != 1000 {
			t.Fatalf("list size = %d", l.Len())
		}
	}
	// Determinism.
	s2 := GenerateBiannual(rand.New(rand.NewSource(3)), pool, from, to, 1000)
	for _, d := range pool[:100] {
		r1, ok1 := s.BestRank(d)
		r2, ok2 := s2.BestRank(d)
		if r1 != r2 || ok1 != ok2 {
			t.Fatal("generation not deterministic")
		}
	}
	// Stickiness: a domain's rank should not teleport wildly between
	// consecutive samples (churn is local swaps).
	moved := 0
	checked := 0
	for _, d := range pool {
		r1, ok1 := lists[0].Rank(d)
		r2, ok2 := lists[1].Rank(d)
		if !ok1 || !ok2 {
			continue
		}
		checked++
		if abs(r1-r2) > 100 {
			moved++
		}
	}
	if checked == 0 || moved > checked/10 {
		t.Fatalf("ranks not sticky: %d/%d moved >100", moved, checked)
	}
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
