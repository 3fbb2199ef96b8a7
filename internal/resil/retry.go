package resil

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"stalecert/internal/obs"
)

// Retry metric: one increment per re-attempt (the first attempt is free).
func retryCounter(service string) *obs.Counter {
	return obs.Default().Counter("resil_retries_total", "service", service)
}

// Verdict classifies an error for the retry loop.
type Verdict uint8

// Verdicts.
const (
	// Retryable errors are transient: another attempt may succeed.
	Retryable Verdict = iota
	// Terminal errors will not improve with retries (4xx, cancellation,
	// open circuits).
	Terminal
)

// HTTPError is a non-2xx response surfaced as an error by the resilient
// transport (and usable by any caller that wants status-aware
// classification). It carries the server's Retry-After hint when present.
type HTTPError struct {
	StatusCode int
	Status     string
	// RetryAfter is the parsed Retry-After hint (0 when absent).
	RetryAfter time.Duration
}

// Error implements error.
func (e *HTTPError) Error() string {
	return fmt.Sprintf("resil: http status %d %s", e.StatusCode, e.Status)
}

// RetryAfterHint implements the hint interface the backoff honors.
func (e *HTTPError) RetryAfterHint() (time.Duration, bool) {
	return e.RetryAfter, e.RetryAfter > 0
}

// retryAfterer lets any error type carry a server-provided backoff hint.
type retryAfterer interface {
	RetryAfterHint() (time.Duration, bool)
}

// ParseRetryAfter reads a Retry-After header value (delta-seconds or
// HTTP-date) relative to now. Returns 0 for absent/unparseable values.
func ParseRetryAfter(h string, now time.Time) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if when, err := http.ParseTime(h); err == nil {
		if d := when.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// DefaultClassify is the stock error classifier: context cancellation and
// overall-deadline expiry are terminal, open circuits are terminal, HTTP 429
// and 5xx are retryable while other HTTP statuses are terminal, and anything
// else (connection resets, refused connections, torn bodies, unexpected EOF)
// is assumed transient and retryable.
func DefaultClassify(err error) Verdict {
	switch {
	case err == nil:
		return Terminal
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return Terminal
	case errors.Is(err, ErrOpen):
		return Terminal
	}
	var he *HTTPError
	if errors.As(err, &he) {
		if he.StatusCode == http.StatusTooManyRequests || he.StatusCode/100 == 5 {
			return Retryable
		}
		return Terminal
	}
	return Retryable
}

// Policy drives the transport's retry loop: how many attempts, how the
// backoff grows, how errors are classified, and which clock paces the sleeps.
// The zero value is usable and applies the defaults documented per field.
type Policy struct {
	// MaxAttempts is the total attempt budget including the first
	// (default 4; 1 disables retries).
	MaxAttempts int
	// BaseDelay is the first backoff step (default 100ms); each further step
	// doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (default 5s).
	MaxDelay time.Duration
	// PerAttempt bounds each attempt with its own deadline (0 = none). An
	// attempt cut off by this budget is retryable as long as the overall
	// context still stands.
	PerAttempt time.Duration
	// Classify maps an attempt's error to a verdict (default
	// DefaultClassify). A status of 400 or above reaches it as an *HTTPError:
	// the statuses it calls Retryable are retried, the others delivered.
	Classify func(error) Verdict
	// Clock paces sleeps and deadline checks (default: the real clock). On a
	// FakeClock the backoff is slept unjittered, so tests see exact sleeps.
	Clock Clock
}

var jitterMu sync.Mutex
var jitterRNG = rand.New(rand.NewSource(1))

func fullJitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	jitterMu.Lock()
	defer jitterMu.Unlock()
	return time.Duration(jitterRNG.Int63n(int64(d)))
}

// withDefaults fills zero fields.
func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	if p.Classify == nil {
		p.Classify = DefaultClassify
	}
	if p.Clock == nil {
		p.Clock = realClock{}
	}
	return p
}

// delay computes the wait before the attempt after `attempt` (1-based)
// failed with err: the server's Retry-After hint verbatim when present — the
// server asked for a specific wait — otherwise exponential backoff with full
// jitter, uniform over [0, d).
func (p Policy) delay(attempt int, err error) time.Duration {
	var ra retryAfterer
	if errors.As(err, &ra) {
		if d, ok := ra.RetryAfterHint(); ok {
			return d
		}
	}
	d := p.BaseDelay
	for i := 1; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	d = min(d, p.MaxDelay)
	if _, fake := p.Clock.(*FakeClock); fake {
		return d
	}
	return fullJitter(d)
}

// joinCtx pairs a context error with the last attempt's error so callers can
// match either with errors.Is.
func joinCtx(ctxErr, lastErr error) error {
	if lastErr == nil {
		return ctxErr
	}
	return errors.Join(ctxErr, lastErr)
}
