package lru

import (
	"strconv"
	"testing"
	"time"
)

// expiredCache returns a cache of capacity n holding n entries that have all
// expired, plus the clock handle that moves its time.
func expiredCache(n int) (*Cache, *time.Time) {
	now := time.Unix(1_700_000_000, 0)
	c := New("lru", n, time.Millisecond)
	c.now = func() time.Time { return now }
	for i := 0; i < n; i++ {
		_, _, _ = c.Do("seed"+strconv.Itoa(i), func() (any, error) { return i, nil })
		now = now.Add(time.Microsecond)
	}
	now = now.Add(time.Second)
	return c, &now
}

// storeExpiring stores n new keys, each after the previous one has expired —
// the gateway's response cache with caching effectively off: every request
// is a stored miss over a list of expired last-good bodies.
func storeExpiring(c *Cache, now *time.Time, from, n int) {
	for i := from; i < from+n; i++ {
		*now = now.Add(2 * time.Millisecond)
		_, _, _ = c.Do("key"+strconv.Itoa(i), func() (any, error) { return i, nil })
	}
}

// BenchmarkDo is the response cache on a warm key (staleapi.cache_hit_ns)
// and on a new one each time (staleapi.cache_miss_ns), at the benchmark
// harness's 1 024 entries.
func BenchmarkDo(b *testing.B) {
	loader := func() (any, error) { return 1, nil }
	b.Run("hit", func(b *testing.B) {
		c := New("lru", 1024, 5*time.Second)
		_, _, _ = c.Do("hot", loader)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _, _ = c.Do("hot", loader)
		}
	})
	b.Run("miss", func(b *testing.B) {
		c := New("lru", 1024, 5*time.Second)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _, _ = c.Do("k"+strconv.Itoa(i), loader)
		}
	})
}

// TestDoAllocCeilings caps BenchmarkDo: a hit allocates nothing today, with
// or without -race, and a miss (its new key's string included) is capped one
// above its 5.
func TestDoAllocCeilings(t *testing.T) {
	loader := func() (any, error) { return 1, nil }
	c := New("lru", 1024, 5*time.Second)
	_, _, _ = c.Do("hot", loader)
	if got := testing.AllocsPerRun(1000, func() { _, _, _ = c.Do("hot", loader) }); got > 0 {
		t.Errorf("a hit allocates %.0f times, ceiling 0", got)
	}
	miss := 0
	if got := testing.AllocsPerRun(1000, func() {
		miss++
		_, _, _ = c.Do("k"+strconv.Itoa(miss), loader)
	}); got > 6 {
		t.Errorf("a miss allocates %.0f times, ceiling 6", got)
	}
}

func BenchmarkStoreOverExpired(b *testing.B) {
	for _, n := range []int{256, 4096} {
		b.Run("entries="+strconv.Itoa(n), func(b *testing.B) {
			c, now := expiredCache(n)
			b.ReportAllocs()
			b.ResetTimer()
			storeExpiring(c, now, 0, b.N)
		})
	}
}

// TestCacheStoreCostIndependentOfEntries pins the O(1) sweep: a stored miss
// over 4 096 expired entries may not cost twice one over 256 (the walk-and-
// sort sweep cost six to eight times as much). Timing on a shared box only ever
// reads high, so each size keeps its fastest of many short rounds, the sizes
// take turns, and one attempt in three that shows the bound proves it.
func TestCacheStoreCostIndependentOfEntries(t *testing.T) {
	const rounds, stores = 15, 4000
	var ratio float64
	for attempt := 0; attempt < 3; attempt++ {
		best := map[int]time.Duration{}
		for round := 0; round < rounds; round++ {
			for _, n := range []int{256, 4096} {
				c, now := expiredCache(n)
				storeExpiring(c, now, 0, 1500) // settle into the steady state
				start := time.Now()
				storeExpiring(c, now, 1500, stores)
				if d := time.Since(start); best[n] == 0 || d < best[n] {
					best[n] = d
				}
			}
		}
		if ratio = float64(best[4096]) / float64(best[256]); ratio < 2 {
			return
		}
	}
	t.Fatalf("a stored miss over 4096 expired entries costs %.2f times one over 256, want < 2", ratio)
}
