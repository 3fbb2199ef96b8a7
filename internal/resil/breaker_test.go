package resil

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func testBreakerConfig(fc *FakeClock) BreakerConfig {
	return BreakerConfig{
		Service:     "test",
		Threshold:   0.5,
		MinRequests: 4,
		Cooldown:    5 * time.Second,
		Clock:       fc,
	}
}

// outcomeOf maps a call's success to its breaker outcome.
func outcomeOf(ok bool) Outcome {
	if ok {
		return OutcomeSuccess
	}
	return OutcomeFailure
}

// drive makes n calls reporting the given outcome, skipping rejections.
func drive(t *testing.T, b *Breaker, n int, ok bool) (admitted int) {
	t.Helper()
	for i := 0; i < n; i++ {
		report, err := b.Allow()
		if err != nil {
			continue
		}
		report(outcomeOf(ok))
		admitted++
	}
	return admitted
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	fc := NewFakeClock(time.Now())
	b := newBreaker(testBreakerConfig(fc).withDefaults(), "peer:1")

	drive(t, b, 2, true)
	drive(t, b, 1, false)
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed (below MinRequests)", b.State())
	}
	drive(t, b, 1, false) // 2 ok / 2 fail over 4 total: 50% ≥ threshold
	if b.State() != Open {
		t.Fatalf("state = %v, want open", b.State())
	}
	if _, err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("Allow on open circuit = %v, want ErrOpen", err)
	}
}

func TestBreakerMinRequestsGuard(t *testing.T) {
	fc := NewFakeClock(time.Now())
	b := newBreaker(testBreakerConfig(fc).withDefaults(), "peer:1")
	drive(t, b, 3, false) // 100% failure but volume below MinRequests=4
	if b.State() != Closed {
		t.Fatalf("state = %v — a few failures on low volume must not trip", b.State())
	}
}

func TestBreakerHalfOpenProbeRecovers(t *testing.T) {
	fc := NewFakeClock(time.Now())
	b := newBreaker(testBreakerConfig(fc).withDefaults(), "peer:1")
	drive(t, b, 4, false)
	if b.State() != Open {
		t.Fatalf("state = %v, want open", b.State())
	}

	fc.Advance(5 * time.Second) // cooldown elapses
	report, err := b.Allow()
	if err != nil {
		t.Fatalf("Allow after cooldown: %v (want probe admission)", err)
	}
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	// A second caller while the probe is in flight is rejected.
	if _, err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("concurrent probe = %v, want ErrOpen", err)
	}
	report(OutcomeSuccess)
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed after successful probe", b.State())
	}
	// The window was reset: fresh calls flow.
	if got := drive(t, b, 3, true); got != 3 {
		t.Fatalf("admitted %d of 3 after recovery", got)
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	fc := NewFakeClock(time.Now())
	b := newBreaker(testBreakerConfig(fc).withDefaults(), "peer:1")
	drive(t, b, 4, false)
	fc.Advance(5 * time.Second)
	report, err := b.Allow()
	if err != nil {
		t.Fatalf("Allow: %v", err)
	}
	report(OutcomeFailure)
	if b.State() != Open {
		t.Fatalf("state = %v, want re-opened", b.State())
	}
	if _, err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("Allow = %v, want ErrOpen for a fresh cooldown", err)
	}
}

func TestBreakerWindowSlidesPastOldFailures(t *testing.T) {
	fc := NewFakeClock(time.Now())
	b := newBreaker(testBreakerConfig(fc).withDefaults(), "peer:1")
	drive(t, b, 3, false)
	fc.Advance(breakerWindow + time.Second) // entire window expires
	drive(t, b, 1, false)                   // would trip if the old failures still counted
	if b.State() != Closed {
		t.Fatalf("state = %v — failures outside the window must not count", b.State())
	}
}

func TestBreakerOnStateChange(t *testing.T) {
	fc := NewFakeClock(time.Now())
	var mu sync.Mutex
	var transitions []string
	cfg := testBreakerConfig(fc)
	cfg.OnStateChange = func(peer string, from, to State) {
		mu.Lock()
		transitions = append(transitions, fmt.Sprintf("%s:%s->%s", peer, from, to))
		mu.Unlock()
	}
	b := newBreaker(cfg.withDefaults(), "p")
	drive(t, b, 4, false)
	fc.Advance(5 * time.Second)
	report, _ := b.Allow()
	report(OutcomeSuccess)

	mu.Lock()
	defer mu.Unlock()
	want := []string{"p:closed->open", "p:open->half-open", "p:half-open->closed"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
}

func TestBreakerSetSnapshot(t *testing.T) {
	fc := NewFakeClock(time.Now())
	s := NewBreakerSet(testBreakerConfig(fc))
	drive(t, s.For("b:1"), 4, false)
	drive(t, s.For("a:1"), 2, true)

	snap := s.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot = %+v, want 2 peers", snap)
	}
	if snap[0].Peer != "a:1" || snap[1].Peer != "b:1" {
		t.Fatalf("snapshot not sorted by peer: %+v", snap)
	}
	if snap[0].State != "closed" || snap[0].WindowOK != 2 {
		t.Fatalf("a:1 = %+v", snap[0])
	}
	if snap[1].State != "open" || snap[1].WindowFail != 4 || snap[1].Trips != 1 {
		t.Fatalf("b:1 = %+v", snap[1])
	}
}

func TestBreakerConcurrentCalls(t *testing.T) {
	fc := NewFakeClock(time.Now())
	cfg := testBreakerConfig(fc)
	cfg.MinRequests = 1000000 // never trip: this test is about data races
	b := newBreaker(cfg.withDefaults(), "p")

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				report, err := b.Allow()
				if err == nil {
					report(outcomeOf(i%3 != 0))
				}
			}
		}(g)
	}
	wg.Wait()
	ok, fail := func() (uint64, uint64) {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.window()
	}()
	if ok+fail != 1600 {
		t.Fatalf("window total = %d, want 1600", ok+fail)
	}
}

func TestBreakerCanceledIsNeutral(t *testing.T) {
	fc := NewFakeClock(time.Now())
	b := newBreaker(testBreakerConfig(fc).withDefaults(), "peer:1")
	// A storm of abandoned calls (losing hedge legs) must not trip the
	// circuit, no matter the volume.
	for i := 0; i < 50; i++ {
		report, err := b.Allow()
		if err != nil {
			t.Fatalf("Allow %d: %v", i, err)
		}
		report(OutcomeCanceled)
	}
	if b.State() != Closed {
		t.Fatalf("state = %v after canceled storm, want closed", b.State())
	}
	// And they do not count toward MinRequests either: one real failure on
	// top still lacks the volume to trip.
	report, _ := b.Allow()
	report(OutcomeFailure)
	if b.State() != Closed {
		t.Fatalf("state = %v, canceled outcomes counted into the window", b.State())
	}
}

func TestBreakerCanceledProbeKeepsHalfOpen(t *testing.T) {
	fc := NewFakeClock(time.Now())
	b := newBreaker(testBreakerConfig(fc).withDefaults(), "peer:1")
	drive(t, b, 4, false)
	if b.State() != Open {
		t.Fatalf("state = %v, want open", b.State())
	}
	fc.Advance(5 * time.Second)
	report, err := b.Allow()
	if err != nil {
		t.Fatalf("Allow after cooldown: %v", err)
	}
	report(OutcomeCanceled)
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want still half-open after canceled probe", b.State())
	}
	// The canceled probe released its slot: the next caller gets to probe,
	// and its real success closes the circuit.
	report2, err := b.Allow()
	if err != nil {
		t.Fatalf("Allow after canceled probe: %v (slot not released)", err)
	}
	report2(OutcomeSuccess)
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed", b.State())
	}
}
