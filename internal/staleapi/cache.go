package staleapi

import (
	"container/list"
	"sync"
	"time"

	"stalecert/internal/obs"
)

// Cache metric families: hit/miss/eviction counters plus the singleflight
// counter for callers that piggybacked on an in-flight computation instead
// of recomputing (the hot-domain thundering-herd guard).
var (
	mCacheHits        = obs.Default().Counter("staleapi_cache_hits_total")
	mCacheMisses      = obs.Default().Counter("staleapi_cache_misses_total")
	mCacheEvictions   = obs.Default().Counter("staleapi_cache_evictions_total")
	mCacheExpired     = obs.Default().Counter("staleapi_cache_expired_total")
	mCacheStaleServed = obs.Default().Counter("staleapi_cache_stale_served_total")
	mFlightShared     = obs.Default().Counter("staleapi_singleflight_shared_total")
	mCacheSize        = obs.Default().Gauge("staleapi_cache_entries")
)

// call is one in-flight computation other callers can wait on.
type call struct {
	done chan struct{}
	val  any
	err  error
}

// Cache is a TTL'd LRU with singleflight semantics: concurrent Do calls for
// the same key run the loader once and share its result. Staleness queries
// on hot domains fan in here — a burst of identical queries costs one
// evidence fetch.
//
// Expired entries are retained as "last-good" until evicted by capacity: a
// loader failure falls back to the stale value (CacheInfo.Stale) instead of
// surfacing the error, the serve-stale degradation the query daemons build
// on.
//
// Every entry shares one TTL, so store order is expiry order. Beside the LRU
// list each entry sits on one of two queues kept in that order — fresh, then
// stale once a sweep finds it expired — and the last-good bounds are enforced
// by popping the stale queue's old end: amortised O(1) per store, however
// many expired entries are retained.
type Cache struct {
	max int
	ttl time.Duration
	now func() time.Time // injectable for tests

	// Last-good retention bounds (see SetStaleBounds). Zero values retain
	// expired entries until capacity eviction, the legacy behavior.
	staleMax int
	staleTTL time.Duration

	gauge *obs.Gauge // entry-count gauge (default: the package-wide one)

	mu    sync.Mutex
	ll    *list.List // LRU order, front = most recently used
	fresh *list.List // expiry order, front = latest expiry
	stale *list.List // expired entries, same order
	items map[string]*cacheEntry
	calls map[string]*call
}

type cacheEntry struct {
	key     string
	val     any
	stored  time.Time
	expires time.Time

	lru   *list.Element // in ll
	exp   *list.Element // in queue
	queue *list.List    // fresh or stale
}

// CacheInfo describes where a Do result came from.
type CacheInfo struct {
	// Hit: the value was served fresh from the cache.
	Hit bool
	// Stale: the loader failed and the value is the retained last-good
	// (expired) entry — degraded service, not an error.
	Stale bool
	// Age is how long ago a stale value was originally computed.
	Age time.Duration
	// Err is the loader error a stale value stands in for, shared by every
	// caller of the flight that failed.
	Err error
}

// NewCache creates a cache holding at most max entries, each fresh for ttl.
// max <= 0 disables storage (every Do runs the loader, still deduplicated by
// singleflight); ttl <= 0 means entries never expire.
func NewCache(max int, ttl time.Duration) *Cache {
	return &Cache{
		max:   max,
		ttl:   ttl,
		now:   time.Now,
		ll:    list.New(),
		fresh: list.New(),
		stale: list.New(),
		items: make(map[string]*cacheEntry),
		calls: make(map[string]*call),
	}
}

// SetStaleBounds bounds how long and how many expired entries are retained
// as last-good serve-stale fallbacks. maxAge is measured past expiry: an
// entry expired longer than maxAge ago is dropped instead of served stale
// (0 = keep until capacity eviction). maxEntries caps how many expired
// entries are retained at once, dropping the longest-expired first (0 = no
// count bound). Without these bounds a cache whose key space keeps growing
// retains every last-good body it ever computed.
func (c *Cache) SetStaleBounds(maxEntries int, maxAge time.Duration) {
	c.mu.Lock()
	c.staleMax = maxEntries
	c.staleTTL = maxAge
	c.mu.Unlock()
}

// SetSizeGauge redirects this cache's entry-count gauge so embedders (the
// gateway's serve-stale cache) can export it under their own metric name.
func (c *Cache) SetSizeGauge(g *obs.Gauge) {
	c.mu.Lock()
	c.gauge = g
	c.mu.Unlock()
}

// setSize updates the entry-count gauge; caller holds c.mu.
func (c *Cache) setSize() {
	if c.gauge != nil {
		c.gauge.Set(float64(c.ll.Len()))
		return
	}
	mCacheSize.Set(float64(c.ll.Len()))
}

// removeLocked drops one entry; caller holds c.mu.
func (c *Cache) removeLocked(ent *cacheEntry) {
	c.ll.Remove(ent.lru)
	ent.queue.Remove(ent.exp)
	delete(c.items, ent.key)
}

// enqueueLocked puts ent at the front of an expiry queue; caller holds c.mu.
func (c *Cache) enqueueLocked(q *list.List, ent *cacheEntry) {
	if ent.queue != nil {
		ent.queue.Remove(ent.exp)
	}
	ent.exp, ent.queue = q.PushFront(ent), q
}

// sweepStaleLocked enforces the stale-retention bounds; caller holds c.mu.
// Entries that expired since the last sweep move from the fresh queue's old
// end to the stale queue's front, each once per store; then the stale queue
// sheds its old end while that entry overstayed staleTTL or the queue is over
// staleMax.
func (c *Cache) sweepStaleLocked(now time.Time) {
	if c.ttl <= 0 {
		return
	}
	for el := c.fresh.Back(); el != nil; el = c.fresh.Back() {
		ent := el.Value.(*cacheEntry)
		if now.Before(ent.expires) {
			break
		}
		c.enqueueLocked(c.stale, ent)
	}
	for el := c.stale.Back(); el != nil; el = c.stale.Back() {
		ent := el.Value.(*cacheEntry)
		overstayed := c.staleTTL > 0 && !now.Before(ent.expires.Add(c.staleTTL))
		if !overstayed && (c.staleMax <= 0 || c.stale.Len() <= c.staleMax) {
			break
		}
		c.removeLocked(ent)
		mCacheEvictions.Inc()
	}
}

// Len returns the live entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Do returns the cached value for key, or runs loader (once across
// concurrent callers) and caches its result. info reports whether the value
// was a fresh cache hit, and — when the loader fails but an expired
// last-good entry is retained — whether the returned value is stale (in
// which case err is nil and the caller should mark the response degraded).
// Loader errors are never cached.
func (c *Cache) Do(key string, loader func() (any, error)) (v any, info CacheInfo, err error) {
	c.mu.Lock()
	var staleVal any
	var staleAge time.Duration
	haveStale := false
	if ent, ok := c.items[key]; ok {
		if c.ttl <= 0 || c.now().Before(ent.expires) {
			c.ll.MoveToFront(ent.lru)
			c.mu.Unlock()
			mCacheHits.Inc()
			return ent.val, CacheInfo{Hit: true}, nil
		}
		// Expired: no longer a hit, but keep the entry as last-good so a
		// failing loader can degrade to it instead of erroring — unless it
		// overstayed the stale-retention TTL, in which case it is dropped.
		now := c.now()
		if c.staleTTL > 0 && !now.Before(ent.expires.Add(c.staleTTL)) {
			c.removeLocked(ent)
			mCacheEvictions.Inc()
			c.setSize()
		} else {
			staleVal, staleAge, haveStale = ent.val, now.Sub(ent.stored), true
		}
		mCacheExpired.Inc()
	}
	serveStale := func(cl *call) (any, CacheInfo, error) {
		if cl.err != nil && haveStale {
			mCacheStaleServed.Inc()
			return staleVal, CacheInfo{Stale: true, Age: staleAge, Err: cl.err}, nil
		}
		return cl.val, CacheInfo{}, cl.err
	}
	if cl, ok := c.calls[key]; ok {
		c.mu.Unlock()
		mFlightShared.Inc()
		<-cl.done
		return serveStale(cl)
	}
	cl := &call{done: make(chan struct{})}
	c.calls[key] = cl
	c.mu.Unlock()
	mCacheMisses.Inc()

	cl.val, cl.err = loader()
	close(cl.done)

	c.mu.Lock()
	delete(c.calls, key)
	if cl.err == nil && c.max > 0 {
		now := c.now()
		ent, ok := c.items[key]
		if ok {
			c.ll.MoveToFront(ent.lru)
		} else {
			ent = &cacheEntry{key: key}
			ent.lru = c.ll.PushFront(ent)
			c.items[key] = ent
		}
		ent.val, ent.stored, ent.expires = cl.val, now, now.Add(c.ttl)
		c.enqueueLocked(c.fresh, ent)
		for c.ll.Len() > c.max {
			c.removeLocked(c.ll.Back().Value.(*cacheEntry))
			mCacheEvictions.Inc()
		}
		c.sweepStaleLocked(now)
	}
	c.setSize()
	c.mu.Unlock()
	return serveStale(cl)
}

// Peek returns the value the cache still holds for key, fresh or expired. It
// is not a lookup: recency, the expiry queues and the hit/miss counters are
// left alone, so a caller may consult what it last stored (the gateway reads
// a fingerprint's answering slice from it) without keeping the entry alive.
func (c *Cache) Peek(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.items[key]
	if !ok {
		return nil, false
	}
	return ent.val, true
}
