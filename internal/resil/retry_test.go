package resil

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

// retry runs the transport's retry loop over op: each attempt is one round
// trip whose error is op's, under the attempt's context.
// Slept returns every duration Sleep was asked to wait.
func (c *FakeClock) Slept() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.slept...)
}

func retry(ctx context.Context, p Policy, op func(ctx context.Context) error) error {
	tr := &Transport{Policy: p, Base: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if err := op(req.Context()); err != nil {
			return nil, err
		}
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: http.NoBody, Request: req}, nil
	})}
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://peer.test/", nil)
	resp, err := tr.RoundTrip(req)
	if err == nil {
		resp.Body.Close()
	}
	return err
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	fc := NewFakeClock(time.Now())
	calls := 0
	err := retry(context.Background(), Policy{
		MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, Clock: fc,
	}, func(context.Context) error {
		calls++
		if calls < 3 {
			return errBoom
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	got := fc.Slept()
	if len(got) != len(want) {
		t.Fatalf("slept %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sleep[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRetryStopsOnTerminalError(t *testing.T) {
	fc := NewFakeClock(time.Now())
	terminal := errors.New("bad request")
	calls := 0
	err := retry(context.Background(), Policy{
		MaxAttempts: 5, Clock: fc,
		Classify: func(err error) Verdict {
			if errors.Is(err, terminal) {
				return Terminal
			}
			return Retryable
		},
	}, func(context.Context) error {
		calls++
		return terminal
	})
	if !errors.Is(err, terminal) {
		t.Fatalf("err = %v, want %v", err, terminal)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (terminal must not retry)", calls)
	}
	if len(fc.Slept()) != 0 {
		t.Fatalf("slept %v, want none", fc.Slept())
	}
}

func TestRetryExhaustsBudget(t *testing.T) {
	fc := NewFakeClock(time.Now())
	calls := 0
	err := retry(context.Background(), Policy{
		MaxAttempts: 3, BaseDelay: time.Millisecond, Clock: fc,
	}, func(context.Context) error {
		calls++
		return errBoom
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want %v", err, errBoom)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

// The satellite contract: an overall budget shorter than the next backoff
// step returns context.DeadlineExceeded promptly instead of sleeping through
// the deadline. Fake clock — the test would hang for 10s if the loop actually
// slept.
func TestRetryNeverSleepsPastDeadline(t *testing.T) {
	now := time.Now()
	fc := NewFakeClock(now)
	ctx, cancel := context.WithDeadline(context.Background(), now.Add(1*time.Second))
	defer cancel()

	calls := 0
	err := retry(ctx, Policy{
		MaxAttempts: 5,
		BaseDelay:   10 * time.Second, // one step already exceeds the budget
		Clock:       fc,
	}, func(context.Context) error {
		calls++
		return errBoom
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, should also wrap the last attempt error", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	if len(fc.Slept()) != 0 {
		t.Fatalf("slept %v — must return promptly, never sleep toward a dead deadline", fc.Slept())
	}
}

func TestRetryPerAttemptTimeoutIsRetryable(t *testing.T) {
	fc := NewFakeClock(time.Now())
	calls := 0
	err := retry(context.Background(), Policy{
		MaxAttempts: 3, PerAttempt: 5 * time.Millisecond,
		BaseDelay: time.Millisecond, Clock: fc,
	}, func(ctx context.Context) error {
		calls++
		if calls < 2 {
			<-ctx.Done() // burn the per-attempt budget
			return ctx.Err()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retry: %v (per-attempt deadline must be retryable)", err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}

func TestRetryCanceledContextIsTerminal(t *testing.T) {
	fc := NewFakeClock(time.Now())
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := retry(ctx, Policy{MaxAttempts: 5, Clock: fc}, func(context.Context) error {
		calls++
		cancel()
		return errBoom
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
}

func TestRetryHonorsRetryAfterHint(t *testing.T) {
	fc := NewFakeClock(time.Now())
	calls := 0
	err := retry(context.Background(), Policy{
		MaxAttempts: 2, BaseDelay: time.Millisecond, Clock: fc,
	}, func(context.Context) error {
		calls++
		if calls == 1 {
			return &HTTPError{StatusCode: 429, Status: "Too Many Requests", RetryAfter: 7 * time.Second}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	slept := fc.Slept()
	if len(slept) != 1 || slept[0] != 7*time.Second {
		t.Fatalf("slept %v, want exactly the server's 7s hint", slept)
	}
}

func TestDelayCapsAtMaxDelay(t *testing.T) {
	p := Policy{BaseDelay: time.Second, MaxDelay: 3 * time.Second, Clock: NewFakeClock(time.Now())}.withDefaults()
	if d := p.delay(1, errBoom); d != time.Second {
		t.Fatalf("delay(1) = %v", d)
	}
	if d := p.delay(2, errBoom); d != 2*time.Second {
		t.Fatalf("delay(2) = %v", d)
	}
	if d := p.delay(5, errBoom); d != 3*time.Second {
		t.Fatalf("delay(5) = %v, want the 3s cap", d)
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"5", 5 * time.Second},
		{"-3", 0},
		{"nonsense", 0},
		{now.Add(90 * time.Second).Format("Mon, 02 Jan 2006 15:04:05 GMT"), 90 * time.Second},
		{now.Add(-time.Hour).Format("Mon, 02 Jan 2006 15:04:05 GMT"), 0},
	}
	for _, c := range cases {
		if got := ParseRetryAfter(c.in, now); got != c.want {
			t.Errorf("ParseRetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestDefaultClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Verdict
	}{
		{context.Canceled, Terminal},
		{context.DeadlineExceeded, Terminal},
		{ErrOpen, Terminal},
		{&HTTPError{StatusCode: 404}, Terminal},
		{&HTTPError{StatusCode: 429}, Retryable},
		{&HTTPError{StatusCode: 503}, Retryable},
		{errBoom, Retryable},
	}
	for _, c := range cases {
		if got := DefaultClassify(c.err); got != c.want {
			t.Errorf("DefaultClassify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
