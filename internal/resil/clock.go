package resil

import (
	"context"
	"sync"
	"time"
)

// Clock abstracts time for the retry, breaker and hedge layers so unit tests
// can exercise deadline arithmetic, window rotation and hedge delays without
// real sleeps.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in the
	// latter case.
	Sleep(ctx context.Context, d time.Duration) error
	// AfterFunc returns a Timer that runs f on its own goroutine d from now.
	// Hedging needs a timer (not Sleep) so a fake clock can hold the hedge
	// delay open while the primary leg races it; FakeClock timers fire only
	// when Advance or Sleep moves fake time past their deadline.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a one-shot timer: it fires once at the deadline unless Stop wins.
type Timer interface {
	// Stop cancels the timer, reporting whether it had not yet fired.
	Stop() bool
}

// realClock is the production Clock.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

func (realClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// FakeClock is a deterministic Clock for tests: Sleep returns immediately,
// advancing the fake time by the requested duration and recording it.
type FakeClock struct {
	mu     sync.Mutex
	now    time.Time
	slept  []time.Duration
	timers []*fakeTimer
}

// NewFakeClock creates a fake clock starting at start.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{now: start}
}

// Now returns the fake time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the fake time forward without recording a sleep, firing any
// timers whose deadline has passed.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.fireLocked()
	c.mu.Unlock()
}

// Sleep advances the fake time by d instantly and records the request.
func (c *FakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.slept = append(c.slept, d)
	c.fireLocked()
	c.mu.Unlock()
	return nil
}

// fakeTimer is a FakeClock timer; it runs f when the clock reaches deadline.
type fakeTimer struct {
	fc       *FakeClock
	f        func()
	deadline time.Time
	done     bool // fired or stopped
}

func (t *fakeTimer) Stop() bool { return t.fc.stopTimer(t) }

// AfterFunc returns a timer that runs f on its own goroutine when Advance or
// Sleep moves the fake time to or past d from now. A non-positive d fires at
// once.
func (c *FakeClock) AfterFunc(d time.Duration, f func()) Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTimer{fc: c, f: f, deadline: c.now.Add(d)}
	c.timers = append(c.timers, t)
	c.fireLocked()
	return t
}

func (c *FakeClock) stopTimer(t *fakeTimer) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.done {
		return false
	}
	t.done = true
	return true
}

// fireLocked delivers every due, unfired timer; callers hold c.mu.
func (c *FakeClock) fireLocked() {
	live := c.timers[:0]
	for _, t := range c.timers {
		if !t.done && !t.deadline.After(c.now) {
			t.done = true
			go t.f()
			continue
		}
		if !t.done {
			live = append(live, t)
		}
	}
	c.timers = live
}
