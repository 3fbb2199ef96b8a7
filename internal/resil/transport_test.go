package resil

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stalecert/internal/obs"
)

// flaky is a RoundTripper scripted to fail n times before succeeding.
type flaky struct {
	calls    atomic.Int64
	failures int64
	mode     string // "error", "status", "torn"
}

func (f *flaky) RoundTrip(req *http.Request) (*http.Response, error) {
	n := f.calls.Add(1)
	if n <= f.failures {
		switch f.mode {
		case "status":
			return &http.Response{
				StatusCode: 503, Status: "503 Service Unavailable",
				Header: http.Header{}, Body: io.NopCloser(strings.NewReader("down")),
				Request: req,
			}, nil
		case "torn":
			return &http.Response{
				StatusCode: 200, Status: "200 OK",
				Header:  http.Header{},
				Body:    io.NopCloser(&failingReader{data: "par"}),
				Request: req,
			}, nil
		default:
			return nil, fmt.Errorf("flaky: connection reset")
		}
	}
	return &http.Response{
		StatusCode: 200, Status: "200 OK",
		Header: http.Header{}, Body: io.NopCloser(strings.NewReader("payload")),
		Request: req,
	}, nil
}

// failingReader yields some bytes then an unexpected EOF.
type failingReader struct {
	data string
	done bool
}

func (r *failingReader) Read(p []byte) (int, error) {
	if r.done {
		return 0, io.ErrUnexpectedEOF
	}
	r.done = true
	return copy(p, r.data), nil
}

func fastPolicy(fc *FakeClock) Policy {
	return Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, Clock: fc}
}

func get(t *testing.T, rt http.RoundTripper, url string) (*http.Response, string, error) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	resp, err := rt.RoundTrip(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, rerr := io.ReadAll(resp.Body)
	if rerr != nil {
		t.Fatalf("read body: %v", rerr)
	}
	return resp, string(body), nil
}

func TestTransportRetriesConnectionErrors(t *testing.T) {
	f := &flaky{failures: 2, mode: "error"}
	tr := &Transport{Base: f, Policy: fastPolicy(NewFakeClock(time.Now()))}
	resp, body, err := get(t, tr, "http://peer.test/x")
	if err != nil {
		t.Fatalf("RoundTrip: %v", err)
	}
	if resp.StatusCode != 200 || body != "payload" {
		t.Fatalf("got %d %q", resp.StatusCode, body)
	}
	if f.calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", f.calls.Load())
	}
}

func TestTransportRetries5xx(t *testing.T) {
	f := &flaky{failures: 1, mode: "status"}
	tr := &Transport{Base: f, Policy: fastPolicy(NewFakeClock(time.Now()))}
	resp, body, err := get(t, tr, "http://peer.test/x")
	if err != nil {
		t.Fatalf("RoundTrip: %v", err)
	}
	if resp.StatusCode != 200 || body != "payload" {
		t.Fatalf("got %d %q", resp.StatusCode, body)
	}
}

func TestTransportRetriesTornBody(t *testing.T) {
	f := &flaky{failures: 1, mode: "torn"}
	tr := &Transport{Base: f, Policy: fastPolicy(NewFakeClock(time.Now()))}
	resp, body, err := get(t, tr, "http://peer.test/x")
	if err != nil {
		t.Fatalf("RoundTrip: %v (torn bodies must be retried)", err)
	}
	if resp.StatusCode != 200 || body != "payload" {
		t.Fatalf("got %d %q", resp.StatusCode, body)
	}
}

// Callers keep their status-code semantics: when the budget runs out on a
// retryable status, the transport delivers the final real response rather
// than a synthesized error.
func TestTransportReturnsFinalRetryableResponse(t *testing.T) {
	f := &flaky{failures: 1 << 30, mode: "status"} // always 503
	tr := &Transport{Base: f, Policy: fastPolicy(NewFakeClock(time.Now()))}
	resp, body, err := get(t, tr, "http://peer.test/x")
	if err != nil {
		t.Fatalf("RoundTrip: %v, want the final 503 response", err)
	}
	if resp.StatusCode != 503 || body != "down" {
		t.Fatalf("got %d %q, want 503 %q", resp.StatusCode, body, "down")
	}
	if f.calls.Load() != 4 {
		t.Fatalf("calls = %d, want MaxAttempts=4", f.calls.Load())
	}
}

func TestTransportTerminalStatusNotRetried(t *testing.T) {
	calls := atomic.Int64{}
	base := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		calls.Add(1)
		return &http.Response{
			StatusCode: 404, Status: "404 Not Found",
			Header: http.Header{}, Body: io.NopCloser(strings.NewReader("nope")),
			Request: req,
		}, nil
	})
	tr := &Transport{Base: base, Policy: fastPolicy(NewFakeClock(time.Now()))}
	resp, body, err := get(t, tr, "http://peer.test/x")
	if err != nil {
		t.Fatalf("RoundTrip: %v", err)
	}
	if resp.StatusCode != 404 || body != "nope" {
		t.Fatalf("got %d %q", resp.StatusCode, body)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1 (4xx is terminal)", calls.Load())
	}
}

// A status of 400 or above goes to the policy's classifier: one it calls
// retryable is retried like a 5xx, as the CRL fetcher retries anti-scraping
// 403s.
func TestTransportRetriesStatusTheClassifierRetries(t *testing.T) {
	calls := atomic.Int64{}
	base := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if calls.Add(1) == 1 {
			return &http.Response{StatusCode: 403, Status: "403 Forbidden", Header: http.Header{},
				Body: io.NopCloser(strings.NewReader("denied")), Request: req}, nil
		}
		return &http.Response{StatusCode: 200, Status: "200 OK", Header: http.Header{},
			Body: io.NopCloser(strings.NewReader("payload")), Request: req}, nil
	})
	p := fastPolicy(NewFakeClock(time.Now()))
	p.Classify = func(error) Verdict { return Retryable }
	resp, body, err := get(t, &Transport{Base: base, Policy: p}, "http://peer.test/x")
	if err != nil || resp.StatusCode != 200 || body != "payload" || calls.Load() != 2 {
		t.Fatalf("got %v %q, %v after %d calls; want the 403 retried into a 200", resp, body, err, calls.Load())
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

func TestTransportReplaysRequestBody(t *testing.T) {
	var bodies []string
	attempts := 0
	base := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		attempts++
		b, _ := io.ReadAll(req.Body)
		bodies = append(bodies, string(b))
		if attempts == 1 {
			return nil, errors.New("reset")
		}
		return &http.Response{
			StatusCode: 200, Status: "200 OK", Header: http.Header{},
			Body: io.NopCloser(strings.NewReader("ok")), Request: req,
		}, nil
	})
	tr := &Transport{Base: base, Policy: fastPolicy(NewFakeClock(time.Now()))}
	req, _ := http.NewRequest(http.MethodPost, "http://peer.test/x", strings.NewReader("hello"))
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatalf("RoundTrip: %v", err)
	}
	resp.Body.Close()
	if len(bodies) != 2 || bodies[0] != "hello" || bodies[1] != "hello" {
		t.Fatalf("bodies = %q, want the same payload twice", bodies)
	}
}

func TestTransportUnreplayableBodyNotRetried(t *testing.T) {
	calls := 0
	base := roundTripFunc(func(*http.Request) (*http.Response, error) {
		calls++
		return nil, errors.New("reset")
	})
	tr := &Transport{Base: base, Policy: fastPolicy(NewFakeClock(time.Now()))}
	req, _ := http.NewRequest(http.MethodPost, "http://peer.test/x", io.NopCloser(strings.NewReader("x")))
	req.GetBody = nil // an opaque stream: no way to replay
	if _, err := tr.RoundTrip(req); err == nil {
		t.Fatal("want error for unreplayable body")
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
}

func TestTransportBreakerIntegration(t *testing.T) {
	fc := NewFakeClock(time.Now())
	base := roundTripFunc(func(*http.Request) (*http.Response, error) {
		return nil, errors.New("reset")
	})
	breakers := NewBreakerSet(BreakerConfig{
		Service: "test", MinRequests: 4, Threshold: 0.5, Clock: fc,
		Cooldown: 5 * time.Second,
	})
	tr := &Transport{Base: base, Policy: fastPolicy(fc), Breakers: breakers}

	// One call = 4 attempts, all failures: trips the breaker mid-loop.
	if _, _, err := get(t, tr, "http://peer.test/x"); err == nil {
		t.Fatal("want error")
	}
	if st := breakers.For("peer.test").State(); st != Open {
		t.Fatalf("breaker state = %v, want open", st)
	}
	// The next call fails fast with ErrOpen — terminal, no retries.
	_, _, err := get(t, tr, "http://peer.test/x")
	if !errors.Is(err, ErrOpen) {
		t.Fatalf("err = %v, want ErrOpen", err)
	}
}

func TestTransportEndToEndAgainstServer(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if hits.Add(1) < 3 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, "real payload")
	}))
	defer srv.Close()

	hc := NewHTTPClient(Options{Service: "e2e", Policy: Policy{
		MaxAttempts: 5, BaseDelay: time.Millisecond,
	}})
	resp, err := hc.Get(srv.URL)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || string(body) != "real payload" {
		t.Fatalf("got %d %q", resp.StatusCode, body)
	}
	if hits.Load() != 3 {
		t.Fatalf("server hits = %d, want 3", hits.Load())
	}
}

func TestInstrumentClientIdempotent(t *testing.T) {
	hc := NewHTTPClient(Options{Service: "x"})
	again := InstrumentClient(hc, Options{Service: "x"})
	if again != hc {
		t.Fatal("InstrumentClient must not double-wrap a resilient client")
	}
	base := &flaky{}
	plain := &http.Client{Transport: base, Timeout: time.Second}
	wrapped := InstrumentClient(plain, Options{Service: "x"})
	if wrapped == plain || wrapped.Timeout != time.Second {
		t.Fatal("InstrumentClient did not wrap a copy of the plain client")
	}
	if tr, ok := wrapped.Transport.(*Transport); !ok || tr.Base != base {
		t.Fatalf("wrapped transport is %T, want a *Transport over the client's own", wrapped.Transport)
	}
	if plain.Transport != base {
		t.Error("InstrumentClient mutated the caller's client")
	}
}

// TestTransportPropagatesContextID: each attempt sends the caller's trace
// with a span ID of its own, and is counted, timed and logged under the
// client's service — in obs.Default(), where every daemon's /metrics reads.
func TestTransportPropagatesContextID(t *testing.T) {
	var serverSeen string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serverSeen = r.Header.Get(obs.TraceHeader)
	}))
	defer ts.Close()
	var logs bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug})))
	defer slog.SetDefault(prev)

	parent := obs.NewRequestID()
	hc := NewHTTPClient(Options{Service: "propagate-test"})
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/x", nil)
	req = req.WithContext(obs.ContextWithRequestID(req.Context(), parent))
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	sent, ok := obs.ParseTraceparent(serverSeen)
	if !ok {
		t.Fatalf("server saw unparseable traceparent %q", serverSeen)
	}
	if sent.TraceID != parent.TraceID {
		t.Errorf("propagated trace = %s, want %s", sent.Trace(), parent.Trace())
	}
	if sent.SpanID == parent.SpanID {
		t.Error("outbound hop reused the parent span ID")
	}
	if req.Header.Get(obs.TraceHeader) != "" {
		t.Error("the caller's request was given a traceparent")
	}
	peer := req.URL.Host
	reg := obs.Default()
	if n := reg.Counter("http_client_requests_total", "service", "propagate-test", "peer", peer, "code", "2xx").Value(); n != 1 {
		t.Errorf("client counter = %d, want 1", n)
	}
	if n := reg.Histogram("http_client_request_seconds", nil, "service", "propagate-test", "peer", peer).Count(); n != 1 {
		t.Errorf("client latency observations = %d, want 1", n)
	}

	var rec map[string]any
	if err := json.Unmarshal(logs.Bytes(), &rec); err != nil {
		t.Fatalf("want one debug record, got %q: %v", logs.String(), err)
	}
	for k, want := range map[string]any{"msg": "http request", "level": "DEBUG", "service": "propagate-test",
		"direction": "client", "method": "GET", "peer": peer, "path": "/x", "status": 200.0,
		"request_id": parent.Trace()} {
		if rec[k] != want {
			t.Errorf("debug record %s = %v, want %v", k, rec[k], want)
		}
	}
	if _, ok := rec["duration_ms"].(float64); !ok || len(rec) != 12 {
		t.Errorf("debug record fields wrong: %v", rec)
	}
}

// declared answers with a fixed body and whatever Content-Length it is told
// to declare.
type declared struct {
	body     string
	declared int64
}

func (d declared) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: 200, Status: "200 OK", Header: http.Header{},
		Body: io.NopCloser(strings.NewReader(d.body)), ContentLength: d.declared, Request: req,
	}, nil
}

// TestTransportBuffersWhateverLengthIsDeclared: the declared length only
// sizes the first buffer. The body delivered is the body sent, whether the
// header is right, absent, short, long or absurd, and a body over the
// buffering limit fails the attempt instead of arriving cut.
func TestTransportBuffersWhateverLengthIsDeclared(t *testing.T) {
	big := strings.Repeat("0123456789abcdef", (3<<20)/16) // 3 MiB, over the 1 MiB the header is trusted for
	for name, rt := range map[string]declared{
		"exact":         {"payload", 7},
		"unknown":       {"payload", -1},
		"zero":          {"payload", 0},
		"short":         {"payload of some length", 3},
		"long":          {"payload", 4096},
		"absurd":        {"payload", 1 << 50},
		"big-exact":     {big, int64(len(big))},
		"big-undersold": {big, 10},
	} {
		tr := &Transport{Base: rt, Policy: Policy{MaxAttempts: 1}}
		resp, body, err := get(t, tr, "http://peer.test/x")
		if err != nil || body != rt.body {
			t.Errorf("%s: got %d bytes, %v; want the %d sent", name, len(body), err, len(rt.body))
			continue
		}
		if resp.ContentLength != int64(len(rt.body)) {
			t.Errorf("%s: delivered ContentLength %d for a %d-byte body", name, resp.ContentLength, len(rt.body))
		}
	}
	req, _ := http.NewRequest(http.MethodGet, "http://peer.test/x", nil)
	resp, err := (&Transport{Base: declared{"payload", 1 << 50}, Policy: Policy{MaxAttempts: 1}}).RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := resp.Body.(*bufferedBody); !ok || cap(b.data) > 2<<20 { // 1 MiB and the allocator's rounding
		t.Errorf("a Content-Length of 2^50 reserved %d bytes for a 7-byte body", cap(b.data))
	}
	tr := &Transport{Base: declared{big, int64(len(big))}, Policy: Policy{MaxAttempts: 1}, maxBody: 1 << 10}
	if _, body, err := get(t, tr, "http://peer.test/x"); err == nil || !strings.Contains(err.Error(), "1024-byte limit") {
		t.Errorf("over the limit: got %d bytes, %v; want an error naming the 1024-byte limit", len(body), err)
	}
}
