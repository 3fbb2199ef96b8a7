// Package lru is the response cache both query daemons answer from: a TTL'd
// LRU with singleflight, whose expired entries stay behind as the last-good
// answers a failing loader degrades to.
package lru

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"stalecert/internal/obs"
)

// call is one in-flight computation other callers can wait on.
type call struct {
	done     chan struct{}
	val      any
	err      error
	returned bool // the loader returned rather than panicking
}

// Cache is a TTL'd LRU with singleflight semantics: concurrent Do calls for
// the same key run the loader once and share its result. Staleness queries
// on hot domains fan in here — a burst of identical queries costs one
// evidence fetch.
//
// Expired entries are retained as "last-good" until evicted by capacity: a
// loader failure falls back to the stale value (CacheInfo.Stale) instead of
// surfacing the error, the serve-stale degradation the query daemons build
// on. How old a last-good value may be and still be served is the caller's
// decision; CacheInfo.Age tells it.
type Cache struct {
	max int
	ttl time.Duration
	now func() time.Time

	// Hit/miss/eviction counters, plus the singleflight counter for callers
	// that piggybacked on an in-flight computation instead of recomputing
	// (the hot-domain thundering-herd guard).
	hits, misses, evictions, expired, staleServed, shared *obs.Counter
	size                                                  *obs.Gauge

	mu    sync.Mutex
	ll    *list.List // LRU order, front = most recently used
	items map[string]*list.Element
	calls map[string]*call
}

type entry struct {
	key     string
	val     any
	stored  time.Time // when the value's inputs were observed: its age runs from here
	expires time.Time
}

// Dated is a loader value computed from inputs observed earlier: Do dates its
// entry from an earlier, non-zero AsOf, so it expires a TTL after its oldest
// input and a stale read reports that input's age.
type Dated interface{ AsOf() time.Time }

// CacheInfo describes where a Do result came from.
type CacheInfo struct {
	// Hit: the value was served fresh from the cache.
	Hit bool
	// Stale: the loader failed and the value is the retained last-good
	// (expired) entry — degraded service, not an error.
	Stale bool
	// Age is how long ago a stale value was computed (if Dated, observed).
	Age time.Duration
	// Err is the loader error a stale value stands in for, shared by every
	// caller of the flight that failed.
	Err error
}

// New creates a cache holding at most max entries, each fresh for ttl, whose
// metric families in obs.Default() are prefixed by name: name_cache_hits_total,
// _misses_total, _evictions_total, _expired_total, _stale_served_total,
// name_singleflight_shared_total and the name_cache_entries gauge. Caches
// sharing a name share those series. max <= 0 disables storage (every Do runs
// the loader, still deduplicated by singleflight); ttl <= 0 means entries
// never expire.
func New(name string, max int, ttl time.Duration) *Cache {
	reg := obs.Default()
	return &Cache{
		max:         max,
		ttl:         ttl,
		now:         time.Now,
		hits:        reg.Counter(name + "_cache_hits_total"),
		misses:      reg.Counter(name + "_cache_misses_total"),
		evictions:   reg.Counter(name + "_cache_evictions_total"),
		expired:     reg.Counter(name + "_cache_expired_total"),
		staleServed: reg.Counter(name + "_cache_stale_served_total"),
		shared:      reg.Counter(name + "_singleflight_shared_total"),
		size:        reg.Gauge(name + "_cache_entries"),
		ll:          list.New(),
		items:       make(map[string]*list.Element),
		calls:       make(map[string]*call),
	}
}

// SetClock replaces the clock entries are stored and expired by (default
// time.Now), so a test or a caller with its own clock can move the cache's
// time. Call it before the first Do.
func (c *Cache) SetClock(now func() time.Time) { c.now = now }

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
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*entry)
		now := c.now()
		if c.ttl <= 0 || now.Before(ent.expires) {
			c.ll.MoveToFront(el)
			c.mu.Unlock()
			c.hits.Inc()
			return ent.val, CacheInfo{Hit: true}, nil
		}
		// Expired: no longer a hit, but keep the entry as last-good so a
		// failing loader can degrade to it instead of erroring.
		staleVal, staleAge, haveStale = ent.val, now.Sub(ent.stored), true
		c.expired.Inc()
	}
	serveStale := func(cl *call) (any, CacheInfo, error) {
		if cl.err != nil && haveStale {
			c.staleServed.Inc()
			return staleVal, CacheInfo{Stale: true, Age: staleAge, Err: cl.err}, nil
		}
		return cl.val, CacheInfo{}, cl.err
	}
	if cl, ok := c.calls[key]; ok {
		c.mu.Unlock()
		c.shared.Inc()
		<-cl.done
		return serveStale(cl)
	}
	cl := &call{done: make(chan struct{})}
	c.calls[key] = cl
	c.mu.Unlock()
	c.misses.Inc()

	defer c.finish(key, cl)
	cl.val, cl.err = loader()
	cl.returned = true
	return serveStale(cl)
}

// finish ends the flight cl: it wakes the waiters, frees key and caches a good
// value. Do defers it, so a loader that panics ends its flight too: the
// waiters get an error naming the panic, which goes on up the loader's
// goroutine.
func (c *Cache) finish(key string, cl *call) {
	r := recover()
	if !cl.returned {
		cl.val, cl.err = nil, fmt.Errorf("lru: loader for %q panicked: %v", key, r)
	}
	close(cl.done)

	c.mu.Lock()
	delete(c.calls, key)
	if cl.err == nil && c.max > 0 {
		now := c.now()
		el, ok := c.items[key]
		if ok {
			c.ll.MoveToFront(el)
		} else {
			el = c.ll.PushFront(&entry{key: key})
			c.items[key] = el
		}
		if d, ok := cl.val.(Dated); ok && !d.AsOf().IsZero() && d.AsOf().Before(now) {
			now = d.AsOf()
		}
		ent := el.Value.(*entry)
		ent.val, ent.stored, ent.expires = cl.val, now, now.Add(c.ttl)
		for c.ll.Len() > c.max {
			old := c.ll.Remove(c.ll.Back()).(*entry)
			delete(c.items, old.key)
			c.evictions.Inc()
		}
	}
	c.size.Set(float64(c.ll.Len()))
	c.mu.Unlock()
	if r != nil {
		panic(r)
	}
}

// Peek returns the value the cache still holds for key, fresh or expired. It
// is not a lookup: recency and the hit/miss counters are left alone, so a
// caller may consult what it last stored (the gateway reads a fingerprint's
// answering slice from it) without keeping the entry alive.
func (c *Cache) Peek(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*entry).val, true
}
