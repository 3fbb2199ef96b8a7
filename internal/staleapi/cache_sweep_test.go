package staleapi

import (
	"container/list"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"time"

	"stalecert/internal/obs"
)

// refCache is the walk-and-sort last-good retention this package shipped
// before the ordered expiry queues: every store walks the whole LRU list,
// drops what overstayed the stale TTL, and sorts the expired remainder to cut
// it to the count bound. It is kept here as the reference the differential
// test compares the O(1) implementation against.
type refCache struct {
	max, staleMax int
	ttl, staleTTL time.Duration
	now           func() time.Time
	ll            *list.List
	items         map[string]*list.Element
	evictions     int
}

type refEntry struct {
	key     string
	expires time.Time
}

func newRefCache(max int, ttl time.Duration, staleMax int, staleTTL time.Duration, now func() time.Time) *refCache {
	return &refCache{max: max, ttl: ttl, staleMax: staleMax, staleTTL: staleTTL, now: now,
		ll: list.New(), items: make(map[string]*list.Element)}
}

func (c *refCache) remove(el *list.Element) {
	c.ll.Remove(el)
	delete(c.items, el.Value.(*refEntry).key)
}

func (c *refCache) sweep(now time.Time) {
	if c.ttl <= 0 || (c.staleTTL <= 0 && c.staleMax <= 0) {
		return
	}
	var expired []*list.Element
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		ent := el.Value.(*refEntry)
		if now.Before(ent.expires) {
			el = next
			continue
		}
		if c.staleTTL > 0 && !now.Before(ent.expires.Add(c.staleTTL)) {
			c.remove(el)
			c.evictions++
		} else {
			expired = append(expired, el)
		}
		el = next
	}
	if c.staleMax > 0 && len(expired) > c.staleMax {
		sort.Slice(expired, func(i, j int) bool {
			return expired[i].Value.(*refEntry).expires.Before(expired[j].Value.(*refEntry).expires)
		})
		for _, el := range expired[:len(expired)-c.staleMax] {
			c.remove(el)
			c.evictions++
		}
	}
}

// do mirrors Cache.Do's effect on retention for a loader that succeeds (ok)
// or fails.
func (c *refCache) do(key string, ok bool) {
	if el, hit := c.items[key]; hit {
		ent := el.Value.(*refEntry)
		if c.ttl <= 0 || c.now().Before(ent.expires) {
			c.ll.MoveToFront(el)
			return
		}
		if now := c.now(); c.staleTTL > 0 && !now.Before(ent.expires.Add(c.staleTTL)) {
			c.remove(el)
			c.evictions++
		}
	}
	if !ok || c.max <= 0 {
		return
	}
	now := c.now()
	if el, hit := c.items[key]; hit {
		el.Value.(*refEntry).expires = now.Add(c.ttl)
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&refEntry{key: key, expires: now.Add(c.ttl)})
	}
	for c.ll.Len() > c.max {
		c.remove(c.ll.Back())
		c.evictions++
	}
	c.sweep(now)
}

func (c *refCache) keys() []string {
	out := make([]string, 0, len(c.items))
	for k := range c.items {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// retainedKeys lists what the cache holds, fresh or last-good.
func (c *Cache) retainedKeys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.items))
	for k := range c.items {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestCacheRetentionMatchesReferenceSweep drives the cache and the reference
// through seeded random sequences of stores, hits, failing loads and clock
// advances under every combination of bounds, and requires
// the same retained keys, Len and eviction count after every step.
func TestCacheRetentionMatchesReferenceSweep(t *testing.T) {
	const ttl = time.Minute
	bounds := []struct {
		max, staleMax int
		staleTTL      time.Duration
	}{
		{max: 16, staleMax: 0, staleTTL: 0},
		{max: 16, staleMax: 4, staleTTL: 0},
		{max: 16, staleMax: 0, staleTTL: 3 * time.Minute},
		{max: 16, staleMax: 4, staleTTL: 3 * time.Minute},
		{max: 6, staleMax: 8, staleTTL: 90 * time.Second},
		{max: 64, staleMax: 1, staleTTL: time.Second},
	}
	for bi, b := range bounds {
		for seed := int64(1); seed <= 20; seed++ {
			rnd := rand.New(rand.NewSource(seed*100 + int64(bi)))
			now := time.Unix(1_700_000_000, 0)
			clock := func() time.Time { return now }
			c := NewCache(b.max, ttl)
			c.now = clock
			c.SetStaleBounds(b.staleMax, b.staleTTL)
			ref := newRefCache(b.max, ttl, b.staleMax, b.staleTTL, clock)
			evBase := mCacheEvictions.Value()

			for step := 0; step < 600; step++ {
				// Two stores never share an instant, so the reference's sort
				// has no ties to break arbitrarily.
				now = now.Add(time.Nanosecond)
				key := "k" + strconv.Itoa(rnd.Intn(24))
				switch op := rnd.Intn(10); {
				case op < 5:
					_, _, _ = c.Do(key, func() (any, error) { return key, nil })
					ref.do(key, true)
				case op < 7:
					_, _, _ = c.Do(key, func() (any, error) { return nil, errLoader })
					ref.do(key, false)
				default:
					// From a few seconds to several TTLs, so runs of entries
					// expire together and some overstay the stale TTL.
					now = now.Add(time.Duration(rnd.Intn(150)) * time.Second)
				}
				got, want := c.retainedKeys(), ref.keys()
				if len(got) != len(want) || c.Len() != len(want) {
					t.Fatalf("bounds %d seed %d step %d: retained %v (Len %d), reference %v", bi, seed, step, got, c.Len(), want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("bounds %d seed %d step %d: retained %v, reference %v", bi, seed, step, got, want)
					}
				}
				if ev := int(mCacheEvictions.Value() - evBase); ev != ref.evictions {
					t.Fatalf("bounds %d seed %d step %d: %d evictions, reference %d", bi, seed, step, ev, ref.evictions)
				}
			}
		}
	}
}

// expiredCache returns a cache of capacity n holding n entries that have all
// expired, under the gateway's default last-good bounds, plus the clock
// handle that moves its time.
func expiredCache(n int) (*Cache, *time.Time) {
	now := time.Unix(1_700_000_000, 0)
	c := NewCache(n, time.Millisecond)
	c.now = func() time.Time { return now }
	c.SetStaleBounds(1024, 10*time.Minute)
	c.SetSizeGauge(&obs.Gauge{})
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

func BenchmarkCacheStoreStaleBounded(b *testing.B) {
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
