package lru

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheHitMissAndLRU(t *testing.T) {
	c := New("lru", 2, time.Hour)
	calls := 0
	load := func(v string) func() (any, error) {
		return func() (any, error) { calls++; return v, nil }
	}

	v, info, err := c.Do("a", load("A"))
	if err != nil || info.Hit || v != "A" || calls != 1 {
		t.Fatalf("first Do = %v %+v %v calls=%d", v, info, err, calls)
	}
	v, info, _ = c.Do("a", load("A2"))
	if !info.Hit || v != "A" || calls != 1 {
		t.Fatalf("second Do should hit: %v %+v calls=%d", v, info, calls)
	}

	c.Do("b", load("B"))
	c.Do("c", load("C")) // evicts "a" (least recent)
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	_, info, _ = c.Do("a", load("A3"))
	if info.Hit {
		t.Fatal("evicted key still cached")
	}
	// "b" was evicted when "a" was re-added ("c" was more recent).
	_, info, _ = c.Do("c", load("C2"))
	if !info.Hit {
		t.Fatal("most-recent key evicted out of order")
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	c := New("lru", 8, time.Minute)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }

	c.Do("k", func() (any, error) { return 1, nil })
	if _, info, _ := c.Do("k", func() (any, error) { return 2, nil }); !info.Hit {
		t.Fatal("fresh entry missed")
	}
	now = now.Add(2 * time.Minute)
	v, info, _ := c.Do("k", func() (any, error) { return 2, nil })
	if info.Hit || v != 2 {
		t.Fatalf("expired entry served: %v %+v", v, info)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := New("lru", 8, time.Minute)
	boom := errors.New("boom")
	if _, _, err := c.Do("k", func() (any, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v", err)
	}
	v, info, err := c.Do("k", func() (any, error) { return "ok", nil })
	if err != nil || info.Hit || v != "ok" {
		t.Fatalf("error was cached: %v %+v %v", v, info, err)
	}
}

func TestCacheServesStaleOnLoaderFailure(t *testing.T) {
	c := New("lru", 8, time.Minute)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	boom := errors.New("upstream down")

	c.Do("k", func() (any, error) { return "good", nil })
	now = now.Add(3 * time.Minute) // entry expires, retained as last-good

	v, info, err := c.Do("k", func() (any, error) { return nil, boom })
	if err != nil {
		t.Fatalf("stale fallback surfaced error: %v", err)
	}
	if v != "good" || !info.Stale || info.Hit {
		t.Fatalf("Do = %v %+v, want last-good stale value", v, info)
	}
	if info.Age != 3*time.Minute {
		t.Fatalf("Age = %v, want 3m", info.Age)
	}

	// A successful reload replaces the stale value and clears degradation.
	v, info, err = c.Do("k", func() (any, error) { return "fresh", nil })
	if err != nil || v != "fresh" || info.Stale {
		t.Fatalf("reload = %v %+v %v", v, info, err)
	}
	if v, info, _ := c.Do("k", func() (any, error) { return nil, boom }); v != "fresh" || !info.Hit {
		t.Fatalf("post-reload hit = %v %+v", v, info)
	}
}

// dated is a value whose inputs were observed at a given time.
type dated time.Time

func (d dated) AsOf() time.Time { return time.Time(d) }

// TestDatedValueExpiresFromItsInputs: a value computed at t0+3s from an input
// observed at t0 is fresh until t0+TTL, and its stale age runs from t0; a
// zero or future AsOf dates it from the store.
func TestDatedValueExpiresFromItsInputs(t *testing.T) {
	c := New("lru", 8, 5*time.Second)
	t0 := time.Unix(1000, 0)
	now := t0.Add(3 * time.Second)
	c.now = func() time.Time { return now }
	boom := errors.New("upstream down")

	c.Do("old", func() (any, error) { return dated(t0), nil })
	c.Do("zero", func() (any, error) { return dated(time.Time{}), nil })
	c.Do("future", func() (any, error) { return dated(now.Add(time.Hour)), nil })
	now = t0.Add(5*time.Second - time.Nanosecond)
	if _, info, _ := c.Do("old", func() (any, error) { return nil, boom }); !info.Hit {
		t.Fatalf("old at t0+5s-1ns: %+v, want a hit", info)
	}
	now = t0.Add(5 * time.Second)
	_, info, _ := c.Do("old", func() (any, error) { return nil, boom })
	if !info.Stale || info.Age != 5*time.Second {
		t.Fatalf("old at t0+5s: %+v, want stale, 5s old", info)
	}
	for _, k := range []string{"zero", "future"} {
		if _, info, _ := c.Do(k, func() (any, error) { return nil, boom }); !info.Hit {
			t.Errorf("%s at t0+5s: %+v, want a hit until t0+8s", k, info)
		}
	}
}

func TestCacheStaleNotServedWithoutLastGood(t *testing.T) {
	c := New("lru", 8, time.Minute)
	boom := errors.New("upstream down")
	_, info, err := c.Do("cold", func() (any, error) { return nil, boom })
	if err != boom || info.Stale {
		t.Fatalf("cold-key failure = %+v %v, want the raw error", info, err)
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := New("lru", 8, time.Minute)
	var loads atomic.Int32
	gate := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	results := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do("hot", func() (any, error) {
				loads.Add(1)
				<-gate
				return "shared", nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Let every goroutine reach Do before releasing the loader. A short
	// sleep is enough: stragglers that arrive later hit the cache instead,
	// which still means exactly one load.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	if got := loads.Load(); got != 1 {
		t.Fatalf("loader ran %d times, want 1", got)
	}
	for i, v := range results {
		if v != "shared" {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
}

func TestCacheZeroMaxStillSingleflights(t *testing.T) {
	c := New("lru", 0, time.Minute)
	c.Do("k", func() (any, error) { return 1, nil })
	if _, info, _ := c.Do("k", func() (any, error) { return 2, nil }); info.Hit {
		t.Fatal("max=0 cache stored an entry")
	}
}

// Peek reads what is retained, fresh or expired, and is invisible: no
// counter moves and the entry's place in the LRU order does not.
func TestCachePeekLeavesNoTrace(t *testing.T) {
	c := New("lru", 2, time.Minute)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	load := func(v string) func() (any, error) { return func() (any, error) { return v, nil } }

	if _, ok := c.Peek("a"); ok {
		t.Fatal("Peek found a key never stored")
	}
	c.Do("a", load("A"))
	c.Do("b", load("B"))
	hits, misses, expired := c.hits.Value(), c.misses.Value(), c.expired.Value()
	if v, ok := c.Peek("a"); !ok || v != "A" {
		t.Fatalf("Peek of a fresh entry = %v, %v", v, ok)
	}
	now = now.Add(2 * time.Minute)
	if v, ok := c.Peek("a"); !ok || v != "A" {
		t.Fatalf("Peek of an expired, retained entry = %v, %v", v, ok)
	}
	if c.hits.Value() != hits || c.misses.Value() != misses || c.expired.Value() != expired {
		t.Fatal("Peek moved a cache counter")
	}
	// "a" is still the least recently used: a third key evicts it, not "b".
	c.Do("c", load("C"))
	if _, ok := c.Peek("a"); ok {
		t.Fatal("Peek refreshed the entry's recency: the later-used key was evicted instead")
	}
	if _, ok := c.Peek("b"); !ok {
		t.Fatal("the more recently used key was evicted")
	}
}

// A loader that panics still ends its flight: a caller waiting on it gets an
// error naming the panic, the panic goes on up the loader's goroutine, and the
// next Do for the key runs its own loader.
func TestCacheLoaderPanicFreesKey(t *testing.T) {
	c := New("lru", 8, time.Minute)
	entered, release := make(chan struct{}), make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.Do("k", func() (any, error) {
			close(entered)
			<-release
			panic("boom")
		})
	}()
	<-entered
	shared := c.shared.Value()
	waited := make(chan error, 1)
	go func() {
		_, _, err := c.Do("k", func() (any, error) { return "unused", nil })
		waited <- err
	}()
	for deadline := time.Now().Add(2 * time.Second); c.shared.Value() == shared; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second caller never joined the flight")
		}
	}
	close(release)
	if r := <-recovered; r != "boom" {
		t.Fatalf("the loader's goroutine recovered %v, want the panic", r)
	}
	select {
	case err := <-waited:
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("the waiter got %v, want an error naming the panic", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a caller waiting on the panicked flight had not returned 2 s later")
	}
	got := make(chan any, 1)
	go func() {
		v, _, _ := c.Do("k", func() (any, error) { return "ok", nil })
		got <- v
	}()
	select {
	case v := <-got:
		if v != "ok" {
			t.Fatalf("Do after the panic = %v, want the new loader's value", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Do for the key had not returned 2 s after its loader panicked")
	}
}
