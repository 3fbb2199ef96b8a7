package resil

import (
	"bytes"
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
const DefaultMaxBodyBytes = 64 << 20

// Transport is the resilient http.RoundTripper: per-peer circuit breaking,
// policy-driven retries with exponential backoff and Retry-After honoring,
// and torn-body recovery (responses are buffered, so a connection cut
// mid-body is retried like any other transient failure instead of surfacing
// to the decoder).
//
// Semantics are preserved for callers: the final attempt's response —
// including a final 429/5xx after the retry budget is spent — is returned
// with its body intact, so status-code handling in existing clients keeps
// working; only the transient failures in between disappear.
type Transport struct {
	// Base performs the actual round trips (default http.DefaultTransport).
	Base http.RoundTripper
	// Policy drives the retry loop.
	Policy Policy
	// Breakers, when set, gates every attempt through the peer's circuit.
	Breakers *BreakerSet
	// MaxBodyBytes caps response buffering (default DefaultMaxBodyBytes).
	// Larger bodies are streamed through un-buffered and not retryable
	// mid-read.
	MaxBodyBytes int64
	// Spans receives the logical call span each round trip records; nil
	// resolves the process-wide obs.DefaultSpans per call.
	Spans *obs.SpanStore
}

// cancelBody ties a per-attempt context cancel to body close for responses
// too large to buffer.
type cancelBody struct {
	io.Reader
	close  func() error
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.close()
	if b.cancel != nil {
		b.cancel()
	}
	return err
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
	if b.cancel != nil {
		b.cancel()
	}
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
	resp, attempts, err := t.retryLoop(ctx, req, p)
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
		Service:  p.Service,
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

// retryLoop runs Policy.loop under ctx (the caller's context plus the call
// span's ID) and reports how many attempts it spent. What is the transport's
// own: a request whose body cannot be replayed gets no second attempt, and
// when the budget is spent on a retryable status the caller is handed that
// response rather than a synthesized error.
func (t *Transport) retryLoop(ctx context.Context, req *http.Request, p Policy) (resp *http.Response, attempts int, err error) {
	maxBody := t.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	err = p.loop(ctx, func(attempt int, lastErr error) (bool, error) {
		if attempt > 1 && req.Body != nil && req.GetBody == nil {
			return true, fmt.Errorf("resil: cannot retry request with unreplayable body: %w", lastErr)
		}
		attempts = attempt
		var aerr error
		var final *http.Response
		if resp, aerr, final = t.attempt(ctx, req, p, attempt, maxBody); final != nil {
			resp, aerr = final, nil
		}
		return false, aerr
	})
	return resp, attempts, err
}

// attempt runs one round trip. It returns either a delivered response
// (err == nil), an error to classify, or — when the status is retryable but
// this was the last allowed attempt — the response itself via final. The
// attempt's request is a shallow copy under the attempt's context: nothing
// here touches the headers, and the obs transport below makes the one deep
// copy it needs to add traceparent.
func (t *Transport) attempt(ctx context.Context, req *http.Request, p Policy, attempt int, maxBody int64) (resp *http.Response, err error, final *http.Response) {
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	var report func(Outcome)
	if t.Breakers != nil {
		var berr error
		report, berr = t.Breakers.For(req.URL.Host).Allow()
		if berr != nil {
			return nil, berr, nil
		}
	} else {
		report = func(Outcome) {}
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
	cancel := context.CancelFunc(nil)
	if p.PerAttempt > 0 {
		actx, cancel = context.WithTimeout(actx, p.PerAttempt)
	}
	areq := req.WithContext(actx)
	if attempt > 1 && req.GetBody != nil {
		body, gerr := req.GetBody()
		if gerr != nil {
			if cancel != nil {
				cancel()
			}
			report(OutcomeFailure)
			return nil, fmt.Errorf("resil: replay request body: %w", gerr), nil
		}
		areq.Body = body
	}

	r, rerr := base.RoundTrip(areq)
	if rerr != nil {
		if cancel != nil {
			cancel()
		}
		report(fail())
		return nil, rerr, nil
	}

	retryableStatus := r.StatusCode == http.StatusTooManyRequests || r.StatusCode/100 == 5

	// Buffer the body so the response is replayable and torn reads become
	// retryable failures instead of decoder errors downstream. A declared
	// length sizes the buffer once instead of by doubling (seven copies for a
	// 26 KB get-entries page); it is trusted up to 1 MiB only, so a lying
	// Content-Length reserves no more than that.
	var buf bytes.Buffer
	if r.ContentLength > 0 {
		buf.Grow(int(min(r.ContentLength, 1<<20)) + bytes.MinRead)
	}
	_, berr := buf.ReadFrom(io.LimitReader(r.Body, maxBody+1))
	data := buf.Bytes()
	if berr != nil {
		_ = r.Body.Close()
		if cancel != nil {
			cancel()
		}
		report(fail()) // torn body: the peer is flaky regardless of status
		return nil, fmt.Errorf("resil: read response body: %w", berr), nil
	}
	report(outcomeOf(!retryableStatus))
	if int64(len(data)) > maxBody {
		// Too large to buffer: stream the remainder through untouched (such
		// a response is delivered as-is and not retryable mid-read).
		r.Body = &cancelBody{
			Reader: io.MultiReader(bytes.NewReader(data), r.Body),
			close:  r.Body.Close,
			cancel: cancel,
		}
		return r, nil, nil
	}
	_ = r.Body.Close()
	r.Body = &bufferedBody{data: data, cancel: cancel}
	r.ContentLength = int64(len(data))

	if retryableStatus {
		if attempt >= p.MaxAttempts {
			return nil, errors.New("resil: retry budget spent"), r
		}
		return nil, &HTTPError{
			StatusCode: r.StatusCode,
			Status:     r.Status,
			RetryAfter: ParseRetryAfter(r.Header.Get("Retry-After"), p.Clock.Now()),
		}, nil
	}
	return r, nil, nil
}
