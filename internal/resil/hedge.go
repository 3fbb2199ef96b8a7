package resil

import (
	"context"
	"errors"
	"sync"
	"time"
)

// Hedge configures hedged execution over interchangeable legs (replicas).
// After waiting After with no response from the running legs, the next
// unstarted leg is launched in parallel; a leg error launches the next leg
// immediately (failover). The first success wins and every other leg's
// context is cancelled. After <= 0 disables timer-driven hedging (legs still
// fail over on error).
type Hedge struct {
	// After is the hedge delay: how long to wait for the running legs
	// before racing the next one. 0 disables speculative hedging.
	After time.Duration
	// Clock paces the hedge timer (default: the real clock).
	Clock Clock
}

// HedgeStats reports what a HedgeDo call actually did.
type HedgeStats struct {
	// Legs is how many legs were started.
	Legs int
	// Hedged counts timer-fired extra legs (speculative, no error seen).
	Hedged int
	// Failovers counts error-fired extra legs.
	Failovers int
	// Winner is the index of the leg whose result was returned (-1 if none
	// succeeded).
	Winner int
	// HedgedWin is true when the winning leg was not leg 0.
	HedgedWin bool
}

// HedgeDo runs op against up to legs interchangeable targets, hedging and
// failing over per cfg. op receives the leg index (0-based) and a context
// that is cancelled as soon as another leg wins — a cancelled loser must
// treat it as abandonment, not failure. The first nil-error result wins; if
// every leg fails, the last error is returned. Deterministic under
// FakeClock: hedge timers fire only when fake time advances.
//
// The primary leg, and each leg it fails over to, runs on the caller's
// goroutine: a call that needs no hedge starts no goroutine. Only a hedge
// timer that fires starts one, for the speculative leg (and that leg's own
// failovers). HedgeDo therefore returns once a result is in *and* the leg the
// caller is running has returned — op must honour its context, which the
// winner and the caller's cancellation both cancel.
func HedgeDo[T any](ctx context.Context, cfg Hedge, legs int, op func(ctx context.Context, leg int) (T, error)) (T, HedgeStats, error) {
	var zero T
	if legs <= 0 {
		return zero, HedgeStats{Winner: -1}, errors.New("resil: hedge with no legs")
	}
	clock := cfg.Clock
	if clock == nil {
		clock = realClock{}
	}

	lctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// One heap object for everything the legs share, not one per variable.
	var s struct {
		sync.Mutex
		stats   HedgeStats
		next    int   // next unstarted leg
		running int   // legs started and not yet returned
		timer   Timer // the armed hedge timer, if any
		armed   int   // which arming timer belongs to: one that fired but was since disarmed is stale
		winner  T
		lastErr error
		done    bool // settled is closed
	}
	s.stats.Winner = -1
	settled := make(chan struct{}) // closed when a leg has won or every leg has failed

	disarm := func() {
		s.armed++
		if s.timer != nil {
			s.timer.Stop()
			s.timer = nil
		}
	}
	settle := func() {
		if !s.done {
			s.done = true
			disarm()
			close(settled)
		}
	}
	var hedge func(arming int)
	// start accounts for leg `next`, arming the hedge timer for its sibling
	// first so that (under a fake clock) the timer exists before the new
	// leg's op can observably run.
	start := func() int {
		leg := s.next
		s.next++
		s.running++
		s.stats.Legs++
		if cfg.After > 0 && s.next < legs {
			arming := s.armed
			s.timer = clock.AfterFunc(cfg.After, func() { hedge(arming) })
		}
		return leg
	}
	// run executes leg, then on error each leg it fails over to, until one
	// wins, none is left, or the call is settled or abandoned.
	run := func(leg int) {
		for {
			v, err := op(lctx, leg)
			s.Lock()
			s.running--
			if s.done {
				s.Unlock()
				return
			}
			if err == nil {
				s.winner, s.stats.Winner, s.stats.HedgedWin = v, leg, leg != 0
				settle()
				s.Unlock()
				cancel()
				return
			}
			s.lastErr = err
			if s.next == legs || ctx.Err() != nil {
				if s.running == 0 {
					settle()
				}
				s.Unlock()
				return
			}
			// Failover: this leg is dead, try the next sibling now.
			disarm()
			s.stats.Failovers++
			leg = start()
			s.Unlock()
		}
	}
	// hedge is the timer callback, on its own goroutine: no leg has answered
	// for cfg.After, so race the next sibling.
	hedge = func(arming int) {
		s.Lock()
		if s.done || arming != s.armed || s.next == legs {
			s.Unlock()
			return
		}
		s.timer = nil
		s.stats.Hedged++
		leg := start()
		s.Unlock()
		run(leg)
	}

	s.Lock()
	leg := start()
	s.Unlock()
	run(leg)
	select {
	case <-settled:
	case <-ctx.Done():
	}
	s.Lock()
	defer s.Unlock()
	disarm()
	if s.stats.Winner >= 0 {
		return s.winner, s.stats, nil
	}
	if err := ctx.Err(); err != nil {
		return zero, s.stats, joinCtx(err, s.lastErr)
	}
	return zero, s.stats, s.lastErr
}
