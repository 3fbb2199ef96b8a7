package resil

import (
	"context"
	"errors"
	"testing"
	"time"
)

func hedgeClock() *FakeClock { return NewFakeClock(time.Unix(1700000000, 0)) }

func TestHedgePrimaryWins(t *testing.T) {
	fc := hedgeClock()
	v, stats, err := HedgeDo(context.Background(), Hedge{After: 50 * time.Millisecond, Clock: fc}, 3,
		func(ctx context.Context, leg int) (string, error) {
			return "primary", nil
		})
	if err != nil || v != "primary" {
		t.Fatalf("got %q, %v", v, err)
	}
	if stats.Legs != 1 || stats.Hedged != 0 || stats.Failovers != 0 || stats.Winner != 0 || stats.HedgedWin {
		t.Fatalf("stats = %+v, want single-leg primary win", stats)
	}
}

func TestHedgeTimerFiresAndSiblingWins(t *testing.T) {
	fc := hedgeClock()
	started := make(chan int, 3)
	primaryCancelled := make(chan struct{})
	done := make(chan struct{})
	var v string
	var stats HedgeStats
	var err error
	go func() {
		defer close(done)
		v, stats, err = HedgeDo(context.Background(), Hedge{After: 50 * time.Millisecond, Clock: fc}, 2,
			func(ctx context.Context, leg int) (string, error) {
				started <- leg
				if leg == 0 {
					// Slow primary: blocks until the winner cancels it.
					<-ctx.Done()
					close(primaryCancelled)
					return "", ctx.Err()
				}
				return "sibling", nil
			})
	}()
	if leg := <-started; leg != 0 {
		t.Fatalf("first leg = %d", leg)
	}
	fc.Advance(50 * time.Millisecond) // hedge timer fires
	if leg := <-started; leg != 1 {
		t.Fatalf("hedge leg = %d", leg)
	}
	<-done
	if err != nil || v != "sibling" {
		t.Fatalf("got %q, %v", v, err)
	}
	if stats.Legs != 2 || stats.Hedged != 1 || stats.Failovers != 0 || stats.Winner != 1 || !stats.HedgedWin {
		t.Fatalf("stats = %+v, want hedged sibling win", stats)
	}
	select {
	case <-primaryCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("losing primary leg was never cancelled")
	}
}

func TestHedgeTimerNotFiredBeforeDelay(t *testing.T) {
	fc := hedgeClock()
	release := make(chan struct{})
	started := make(chan int, 3)
	done := make(chan struct{})
	var stats HedgeStats
	go func() {
		defer close(done)
		_, stats, _ = HedgeDo(context.Background(), Hedge{After: 50 * time.Millisecond, Clock: fc}, 2,
			func(ctx context.Context, leg int) (string, error) {
				started <- leg
				<-release
				return "ok", nil
			})
	}()
	<-started
	fc.Advance(49 * time.Millisecond) // just under the hedge delay
	close(release)
	<-done
	if stats.Legs != 1 || stats.Hedged != 0 {
		t.Fatalf("stats = %+v, hedge fired before its delay", stats)
	}
}

func TestHedgeFailoverOnError(t *testing.T) {
	fc := hedgeClock()
	v, stats, err := HedgeDo(context.Background(), Hedge{After: time.Hour, Clock: fc}, 2,
		func(ctx context.Context, leg int) (string, error) {
			if leg == 0 {
				return "", errors.New("replica down")
			}
			return "sibling", nil
		})
	if err != nil || v != "sibling" {
		t.Fatalf("got %q, %v", v, err)
	}
	if stats.Legs != 2 || stats.Hedged != 0 || stats.Failovers != 1 || stats.Winner != 1 || !stats.HedgedWin {
		t.Fatalf("stats = %+v, want error-driven failover win", stats)
	}
}

func TestHedgeAllLegsFail(t *testing.T) {
	fc := hedgeClock()
	errLast := errors.New("last leg error")
	_, stats, err := HedgeDo(context.Background(), Hedge{After: time.Hour, Clock: fc}, 3,
		func(ctx context.Context, leg int) (string, error) {
			if leg == 2 {
				return "", errLast
			}
			return "", errors.New("early failure")
		})
	if !errors.Is(err, errLast) {
		t.Fatalf("err = %v, want last leg's error", err)
	}
	if stats.Legs != 3 || stats.Failovers != 2 || stats.Winner != -1 || stats.HedgedWin {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestHedgeCallerCancellation(t *testing.T) {
	fc := hedgeClock()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	go func() {
		<-started
		cancel()
	}()
	_, _, err := HedgeDo(ctx, Hedge{After: time.Hour, Clock: fc}, 2,
		func(ctx context.Context, leg int) (string, error) {
			close(started)
			<-ctx.Done()
			return "", ctx.Err()
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestHedgeNoLegs(t *testing.T) {
	if _, _, err := HedgeDo(context.Background(), Hedge{}, 0,
		func(ctx context.Context, leg int) (string, error) { return "", nil }); err == nil {
		t.Fatal("zero legs accepted")
	}
}

func TestHedgeChainedTimers(t *testing.T) {
	// With three legs and every leg slow, each hedge delay launches the
	// next leg; the last one to start wins.
	fc := hedgeClock()
	started := make(chan int, 3)
	done := make(chan struct{})
	var v string
	var stats HedgeStats
	var err error
	go func() {
		defer close(done)
		v, stats, err = HedgeDo(context.Background(), Hedge{After: 10 * time.Millisecond, Clock: fc}, 3,
			func(ctx context.Context, leg int) (string, error) {
				started <- leg
				if leg < 2 {
					<-ctx.Done()
					return "", ctx.Err()
				}
				return "third", nil
			})
	}()
	<-started
	fc.Advance(10 * time.Millisecond)
	<-started
	fc.Advance(10 * time.Millisecond)
	<-started
	<-done
	if err != nil || v != "third" {
		t.Fatalf("got %q, %v", v, err)
	}
	if stats.Legs != 3 || stats.Hedged != 2 || stats.Winner != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestFakeClockTimer(t *testing.T) {
	fc := hedgeClock()
	fired := make(chan struct{})
	timer := fc.AfterFunc(100*time.Millisecond, func() { close(fired) })
	fc.Advance(99 * time.Millisecond)
	select {
	case <-fired:
		t.Fatal("timer fired 1ms early")
	default:
	}
	fc.Advance(time.Millisecond)
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("timer did not fire at its deadline")
	}
	if timer.Stop() {
		t.Fatal("Stop after firing reported the timer as live")
	}

	stopped := fc.AfterFunc(time.Second, func() { t.Error("stopped timer fired") })
	if !stopped.Stop() {
		t.Fatal("Stop on a live timer reported already-fired")
	}
	fc.Advance(2 * time.Second)
	if stopped.Stop() {
		t.Fatal("second Stop reported the timer as live")
	}

	immediate := make(chan struct{})
	fc.AfterFunc(0, func() { close(immediate) })
	select {
	case <-immediate:
	case <-time.After(5 * time.Second):
		t.Fatal("zero-duration timer did not fire immediately")
	}
}
