package resil

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"stalecert/internal/obs"
)

// DefaultMaxBodyBytes bounds how much of a response the transport buffers to
// make attempts replayable (matches the largest consumer, the CRL fetcher).
// A larger body fails its attempt like a torn one.
const DefaultMaxBodyBytes = 64 << 20

// Transport is the resilient http.RoundTripper: per-peer circuit breaking,
// policy-driven retries with exponential backoff and Retry-After honoring,
// and torn-body recovery (responses are buffered, so a connection cut
// mid-body is retried like any other transient failure instead of surfacing
// to the decoder).
//
// Semantics are preserved for callers: the final attempt's response —
// including a final retryable status after the retry budget is spent — is
// returned with its body intact, so status-code handling in existing clients
// keeps working; only the transient failures in between disappear.
type Transport struct {
	// Base performs the actual round trips (default http.DefaultTransport).
	Base http.RoundTripper
	// Service labels the call spans and resil_retries_total (default
	// "unnamed").
	Service string
	// Policy drives the retry loop.
	Policy Policy
	// Breakers, when set, gates every attempt through the peer's circuit.
	Breakers *BreakerSet
	// Spans receives the logical call span each round trip records; nil
	// resolves the process-wide obs.DefaultSpans per call.
	Spans *obs.SpanStore

	maxBody int64 // 0 = DefaultMaxBodyBytes; tests lower it
}

// bufferedBody is a response body the transport has read to the end: data is
// the part the consumer has not read yet.
type bufferedBody struct {
	data   []byte
	cancel context.CancelFunc
}

func (b *bufferedBody) Read(p []byte) (int, error) {
	if len(b.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, b.data)
	b.data = b.data[n:]
	return n, nil
}

func (b *bufferedBody) Close() error {
	b.cancel()
	return nil
}

// ReadBody returns the rest of resp's body and closes it, failing when that
// is more than limit bytes. A body the resilient transport already buffered
// is handed over as it is instead of being read into a second buffer.
func ReadBody(resp *http.Response, limit int64) ([]byte, error) {
	defer resp.Body.Close()
	var data []byte
	if b, ok := resp.Body.(*bufferedBody); ok {
		data, b.data = b.data, nil
	} else {
		var err error
		if data, err = io.ReadAll(io.LimitReader(resp.Body, limit+1)); err != nil {
			return nil, fmt.Errorf("read body: %w", err)
		}
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("response body exceeds the %d-byte limit", limit)
	}
	return data, nil
}

// RoundTrip implements http.RoundTripper. Beyond the retry loop it anchors
// the call in the distributed trace: a logical "call" span covering every
// attempt is recorded when the loop finishes, parented under the caller's
// context span, and each attempt runs with that call span as its context ID
// plus an attempt number — so the per-attempt client spans the obs transport
// records underneath become numbered siblings and retries are visible in the
// stored trace. A call with no request ID in its context (a free-standing
// poller) mints the trace here, and the call span is its local root: the
// tail-sampling keep/drop decision runs when the call completes.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	p := t.Policy.withDefaults()
	service := cmp.Or(t.Service, "unnamed")

	parentSpan := ""
	id, hadID := obs.RequestIDFromContext(req.Context())
	if hadID {
		parentSpan = id.Span()
		id = id.Child()
	} else {
		id = obs.NewRequestID()
	}
	ctx := obs.ContextWithRequestID(req.Context(), id)

	start := time.Now()
	resp, attempts, err := t.retryLoop(ctx, req, p, service)
	elapsed := time.Since(start)

	status := 0
	errStr := ""
	if err != nil {
		errStr = err.Error()
	} else if resp != nil {
		status = resp.StatusCode
	}
	rec := obs.SpanRecord{
		TraceID:  id.Trace(),
		SpanID:   id.Span(),
		ParentID: parentSpan,
		Service:  service,
		Name:     req.Method + " " + req.URL.Path,
		Kind:     obs.SpanCall,
		Start:    start,
		Duration: elapsed,
		Peer:     req.URL.Host,
		Status:   status,
		Attempt:  attempts,
		Err:      errStr,
	}
	st := t.Spans
	if st == nil {
		st = obs.DefaultSpans()
	}
	if hadID {
		st.Record(rec)
	} else {
		st.RecordRoot(rec)
	}
	return resp, err
}

// retryLoop is the one retry loop. It runs attempts under ctx (the caller's
// context plus the call span's ID) until one is delivered, a terminal error
// occurs, the budget is spent, or ctx's deadline cannot accommodate the next
// backoff step — then it returns promptly with an error satisfying
// errors.Is(err, context.DeadlineExceeded) instead of sleeping through it. An
// attempt cut off while ctx still stands was cut off by its own per-attempt
// budget and is retryable. A request whose body cannot be replayed gets no
// second attempt, and when the budget is spent on a retryable status the
// caller is handed that response rather than a synthesized error. It reports
// how many attempts it spent.
func (t *Transport) retryLoop(ctx context.Context, req *http.Request, p Policy, service string) (*http.Response, int, error) {
	var lastErr error
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, attempt - 1, joinCtx(err, lastErr)
		}
		resp, err := t.attempt(ctx, req, p, attempt)
		if err == nil || (resp != nil && attempt >= p.MaxAttempts) {
			return resp, attempt, nil
		}
		if resp != nil {
			resp.Body.Close() // a retryable status another attempt replaces
		}
		lastErr = err
		if cerr := ctx.Err(); cerr != nil {
			return nil, attempt, joinCtx(cerr, lastErr)
		}
		verdict := p.Classify(err)
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			verdict = Retryable
		}
		if verdict == Terminal || attempt >= p.MaxAttempts {
			return nil, attempt, lastErr
		}
		if req.Body != nil && req.GetBody == nil {
			return nil, attempt, fmt.Errorf("resil: cannot retry request with unreplayable body: %w", lastErr)
		}
		delay := p.delay(attempt, err)
		if deadline, ok := ctx.Deadline(); ok && p.Clock.Now().Add(delay).After(deadline) {
			return nil, attempt, joinCtx(context.DeadlineExceeded, lastErr)
		}
		retryCounter(service).Inc()
		if serr := p.Clock.Sleep(ctx, delay); serr != nil {
			return nil, attempt, joinCtx(serr, lastErr)
		}
	}
}

// attempt runs one round trip. A delivered response comes back with a nil
// error; a status the policy calls retryable comes back both as its response
// and as the *HTTPError to classify. The attempt's request is a shallow copy
// under the attempt's context: nothing here touches the headers, and the obs
// transport below makes the one deep copy it needs to add traceparent.
func (t *Transport) attempt(ctx context.Context, req *http.Request, p Policy, attempt int) (*http.Response, error) {
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	report := func(Outcome) {}
	if t.Breakers != nil {
		var berr error
		if report, berr = t.Breakers.For(req.URL.Host).Allow(); berr != nil {
			return nil, berr
		}
	}
	// fail distinguishes a genuine peer failure from caller abandonment: a
	// losing hedge leg (or any caller-cancelled attempt) says nothing about
	// the peer's health and must not trip its breaker.
	fail := func() Outcome {
		if ctx.Err() != nil {
			return OutcomeCanceled
		}
		return OutcomeFailure
	}

	// Tag the attempt number so the obs transport below records which try
	// this was: retries show as numbered sibling spans in the trace.
	actx := obs.ContextWithAttempt(ctx, attempt)
	cancel := context.CancelFunc(func() {})
	if p.PerAttempt > 0 {
		actx, cancel = context.WithTimeout(actx, p.PerAttempt)
	}
	areq := req.WithContext(actx)
	if attempt > 1 && req.GetBody != nil {
		body, gerr := req.GetBody()
		if gerr != nil {
			cancel()
			report(OutcomeFailure)
			return nil, fmt.Errorf("resil: replay request body: %w", gerr)
		}
		areq.Body = body
	}

	r, rerr := base.RoundTrip(areq)
	if rerr != nil {
		cancel()
		report(fail())
		return nil, rerr
	}

	// Buffer the body so the response is replayable and torn reads become
	// retryable failures instead of decoder errors downstream. A declared
	// length sizes the buffer once instead of by doubling (seven copies for a
	// 26 KB get-entries page); it is trusted up to 1 MiB only, so a lying
	// Content-Length reserves no more than that.
	maxBody := cmp.Or(t.maxBody, DefaultMaxBodyBytes)
	var buf bytes.Buffer
	if r.ContentLength > 0 {
		buf.Grow(int(min(r.ContentLength, 1<<20)) + bytes.MinRead)
	}
	_, berr := buf.ReadFrom(io.LimitReader(r.Body, maxBody+1))
	_ = r.Body.Close()
	if berr == nil && int64(buf.Len()) > maxBody {
		berr = fmt.Errorf("body exceeds the %d-byte limit", maxBody)
	}
	if berr != nil {
		cancel()
		report(fail()) // torn body: the peer is flaky regardless of status
		return nil, fmt.Errorf("resil: read response body: %w", berr)
	}
	r.Body = &bufferedBody{data: buf.Bytes(), cancel: cancel}
	r.ContentLength = int64(buf.Len())

	if r.StatusCode >= 400 {
		herr := &HTTPError{StatusCode: r.StatusCode, Status: r.Status}
		if p.Classify(herr) == Retryable {
			report(OutcomeFailure)
			herr.RetryAfter = ParseRetryAfter(r.Header.Get("Retry-After"), p.Clock.Now())
			return r, herr
		}
	}
	report(OutcomeSuccess)
	return r, nil
}
