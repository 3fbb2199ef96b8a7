package obs

import (
	"cmp"
	"context"
	"log/slog"
	"net/http"
	"time"
)

// Transport is an instrumented http.RoundTripper for outbound calls: it
// propagates the request ID from the context (minting one when the caller has
// none) via the traceparent header with a fresh span ID per hop, records
// per-peer latency and outcome metrics, and emits a debug-level slog record
// per call carrying the trace ID for client/server log correlation.
//
// Each round trip also records one client span into the span store (Spans,
// nil for the process-wide DefaultSpans): the span's parent is the caller's
// context span, so an enclosing server request shows its outbound fan-out,
// and the resilient transport's per-attempt invocations become sibling spans
// tagged with their attempt number — retries are visible in the trace. When
// the transport minted the trace itself (no context ID — a free-standing
// client like a poller), the client span is the trace's local root and the
// tail-sampling decision runs immediately.
//
// Metrics (peer is the target host:port):
//
//	http_client_requests_total{service,peer,code}   code: 2xx..5xx or "error"
//	http_client_request_seconds{service,peer}
//
// The zero value is not usable; set Service. Base and Registry default to
// http.DefaultTransport and Default().
type Transport struct {
	Base     http.RoundTripper
	Registry *Registry
	Service  string
	// Spans receives the client spans; nil resolves DefaultSpans per call.
	Spans *SpanStore
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	reg := cmp.Or(t.Registry, Default())
	parentSpan := ""
	id, hadID := RequestIDFromContext(req.Context())
	if hadID {
		parentSpan = id.Span()
		id = id.Child()
	} else {
		id = NewRequestID()
	}
	// RoundTrippers must not mutate the caller's request.
	req = req.Clone(req.Context())
	tp := id.String()
	req.Header.Set(TraceHeader, tp)

	peer := req.URL.Host
	start := time.Now()
	resp, err := cmp.Or(t.Base, http.DefaultTransport).RoundTrip(req)
	elapsed := time.Since(start)

	code := "error"
	status := 0
	errStr := ""
	if err == nil {
		code = statusClass(resp.StatusCode)
		status = resp.StatusCode
	} else {
		errStr = err.Error()
	}
	reg.Counter("http_client_requests_total", "service", t.Service, "peer", peer, "code", code).Inc()
	reg.Histogram("http_client_request_seconds", nil, "service", t.Service, "peer", peer).
		Observe(elapsed.Seconds())

	rec := SpanRecord{
		TraceID:  tp[3:35],
		SpanID:   tp[36:52],
		ParentID: parentSpan,
		Service:  t.Service,
		Name:     req.Method + " " + req.URL.Path,
		Kind:     SpanClient,
		Start:    start,
		Duration: elapsed,
		Peer:     peer,
		Status:   status,
		Attempt:  AttemptFromContext(req.Context()),
		Err:      errStr,
	}
	st := cmp.Or(t.Spans, DefaultSpans())
	if hadID {
		st.Record(rec)
	} else {
		// This transport originated the trace, so the client span is the
		// local root: decide keep/drop now.
		st.RecordRoot(rec)
	}

	if slog.Default().Enabled(context.Background(), slog.LevelDebug) {
		slog.Debug("http request", "service", t.Service, "direction", "client",
			"method", req.Method, "peer", peer, "path", req.URL.Path, "status", status,
			"err", err, "duration_ms", float64(elapsed.Microseconds())/1000,
			"request_id", rec.TraceID)
	}
	return resp, err
}

// NewHTTPClient returns an http.Client whose transport is instrumented for
// the named service against the given registry (nil for Default()).
func NewHTTPClient(reg *Registry, service string) *http.Client {
	return &http.Client{Transport: &Transport{Registry: reg, Service: service}}
}

// InstrumentClient wraps hc's transport (http.DefaultClient semantics when hc
// is nil) with an instrumented Transport on the Default registry. Packages
// use it to give their "nil means default client" constructors per-peer
// metrics without changing signatures.
func InstrumentClient(hc *http.Client, service string) *http.Client {
	if hc == nil {
		return NewHTTPClient(nil, service)
	}
	if _, ok := hc.Transport.(*Transport); ok {
		return hc // already instrumented
	}
	wrapped := *hc
	wrapped.Transport = &Transport{Base: hc.Transport, Service: service}
	return &wrapped
}
