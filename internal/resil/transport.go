package resil

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
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
	// Service labels the spans, the client metrics and resil_retries_total
	// (default "unnamed").
	Service string
	// Policy drives the retry loop.
	Policy Policy
	// Breakers, when set, gates every attempt through the peer's circuit.
	Breakers *BreakerSet
	// Spans receives the call and attempt spans each round trip records;
	// nil resolves the process-wide obs.DefaultSpans per call.
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
// context span, and each attempt is a client span beneath it carrying its
// attempt number, so retries show as numbered siblings in the stored trace.
// A call with no request ID in its context (a free-standing poller) mints
// the trace here, and the call span is its local root: the tail-sampling
// keep/drop decision runs when the call completes.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	c := call{p: t.Policy.withDefaults(), service: cmp.Or(t.Service, "unnamed"),
		name: req.Method + " " + req.URL.Path, spans: cmp.Or(t.Spans, obs.DefaultSpans())}
	parentSpan := ""
	id, hadID := obs.RequestIDFromContext(req.Context())
	if hadID {
		parentSpan = id.Span()
		id = id.Child()
	} else {
		id = obs.NewRequestID()
	}
	c.id, c.tp = id, id.String()

	start := time.Now()
	resp, attempts, err := t.retryLoop(req, &c)
	elapsed := time.Since(start)

	status := 0
	errStr := ""
	if err != nil {
		errStr = err.Error()
	} else if resp != nil {
		status = resp.StatusCode
	}
	rec := obs.SpanRecord{
		TraceID:  c.tp[3:35],
		SpanID:   c.tp[36:52],
		ParentID: parentSpan,
		Service:  c.service,
		Name:     c.name,
		Kind:     obs.SpanCall,
		Start:    start,
		Duration: elapsed,
		Peer:     req.URL.Host,
		Status:   status,
		Attempt:  attempts,
		Err:      errStr,
	}
	if hadID {
		c.spans.Record(rec)
	} else {
		c.spans.RecordRoot(rec)
	}
	return resp, err
}

// call is what the attempts of one round trip share.
type call struct {
	p       Policy
	service string
	name    string // the span name, "GET /path"
	spans   *obs.SpanStore
	id      obs.RequestID // the call span; each attempt's span is a child
	tp      string        // id as a traceparent
}

// retryLoop is the one retry loop. It runs attempts under the caller's
// context until one is delivered, a terminal error occurs, the budget is
// spent, or the context's deadline cannot accommodate the next backoff step —
// then it returns promptly with an error satisfying
// errors.Is(err, context.DeadlineExceeded) instead of sleeping through it. An
// attempt cut off while the caller's context still stands was cut off by its
// own per-attempt budget and is retryable. A request whose body cannot be replayed gets no
// second attempt, and when the budget is spent on a retryable status the
// caller is handed that response rather than a synthesized error. It reports
// how many attempts it spent.
func (t *Transport) retryLoop(req *http.Request, c *call) (*http.Response, int, error) {
	ctx, p := req.Context(), &c.p
	var lastErr error
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, attempt - 1, joinCtx(err, lastErr)
		}
		resp, err := t.attempt(ctx, req, c, attempt)
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
		retryCounter(c.service).Inc()
		if serr := p.Clock.Sleep(ctx, delay); serr != nil {
			return nil, attempt, joinCtx(serr, lastErr)
		}
	}
}

// attempt runs one round trip. A delivered response comes back with a nil
// error; a status the policy calls retryable comes back both as its response
// and as the *HTTPError to classify. The attempt sends its own copy of the
// request, under the attempt's context and with a traceparent naming its
// client span, and records that span, the per-peer client metrics and a
// debug log line from the round trip alone: a torn body fails the attempt
// but shows on the call span.
func (t *Transport) attempt(ctx context.Context, req *http.Request, c *call, attempt int) (*http.Response, error) {
	p := &c.p
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

	actx, cancel := ctx, context.CancelFunc(func() {})
	if p.PerAttempt > 0 {
		actx, cancel = context.WithTimeout(ctx, p.PerAttempt)
	}
	// RoundTrippers must not mutate the caller's request.
	areq := req.Clone(actx)
	tp := c.id.Child().String()
	areq.Header.Set(obs.TraceHeader, tp)
	if attempt > 1 && req.GetBody != nil {
		body, gerr := req.GetBody()
		if gerr != nil {
			cancel()
			report(OutcomeFailure)
			return nil, fmt.Errorf("resil: replay request body: %w", gerr)
		}
		areq.Body = body
	}

	start := time.Now()
	r, rerr := base.RoundTrip(areq)
	c.record(areq, tp, attempt, start, time.Since(start), r, rerr)
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

// record accounts for one attempt's round trip: the client span under the
// call span, http_client_requests_total{service,peer,code} (code 2xx..5xx or
// "error"), http_client_request_seconds{service,peer} and, at debug level,
// an "http request" record with direction=client whose request_id joins the
// peer's access log.
func (c *call) record(req *http.Request, tp string, attempt int, start time.Time, elapsed time.Duration, resp *http.Response, err error) {
	peer := req.URL.Host
	code, status, errStr := "error", 0, ""
	if err == nil {
		code, status = obs.StatusClass(resp.StatusCode), resp.StatusCode
	} else {
		errStr = err.Error()
	}
	reg := obs.Default()
	reg.Counter("http_client_requests_total", "service", c.service, "peer", peer, "code", code).Inc()
	reg.Histogram("http_client_request_seconds", nil, "service", c.service, "peer", peer).
		Observe(elapsed.Seconds())

	c.spans.Record(obs.SpanRecord{
		TraceID:  tp[3:35],
		SpanID:   tp[36:52],
		ParentID: c.tp[36:52],
		Service:  c.service,
		Name:     c.name,
		Kind:     obs.SpanClient,
		Start:    start,
		Duration: elapsed,
		Peer:     peer,
		Status:   status,
		Attempt:  attempt,
		Err:      errStr,
	})

	if slog.Default().Enabled(context.Background(), slog.LevelDebug) {
		slog.Debug("http request", "service", c.service, "direction", "client",
			"method", req.Method, "peer", peer, "path", req.URL.Path, "status", status,
			"err", err, "duration_ms", float64(elapsed.Microseconds())/1000,
			"request_id", tp[3:35])
	}
}
