package obs

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
)

// discardWriter is a ResponseWriter that costs nothing, so the middleware
// benchmark and allocation ceiling measure the middleware, not a recorder.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// productionLogger installs the logger chain every daemon runs (ring tee over
// a text handler at info) writing to io.Discard, restoring the previous
// default when the test ends.
func productionLogger(tb testing.TB) {
	tb.Helper()
	prev, prevLevel := slog.Default(), LogLevel()
	SetupLogger(io.Discard, "text", "info")
	tb.Cleanup(func() {
		slog.SetDefault(prev)
		SetLogLevel(prevLevel)
	})
}

// middlewareUnderTest is one parameterised route behind Middleware on a
// private registry, with the default span store.
func middlewareUnderTest(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/domain/{e2ld}/staleness", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	return Middleware(reg, "bench", mux)
}

// BenchmarkMiddleware is the per-request price of the instrumentation on a
// served request: request ID, RED metrics, server span, access-log record
// teed into the ring and rendered as text.
func BenchmarkMiddleware(b *testing.B) {
	productionLogger(b)
	h := middlewareUnderTest(NewRegistry())
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := &discardWriter{h: http.Header{}}
		req := httptest.NewRequest(http.MethodGet, "/v1/domain/example.com/staleness", nil)
		for pb.Next() {
			h.ServeHTTP(w, req)
		}
	})
}

// Allocation ceilings for the served-request instrumentation, two above what
// it costs today (10 with or without a traceparent; the race detector adds
// two): a change that reintroduces label formatting, boxed log arguments, a
// slog.Record on the text path or a lower-cased level per record fails here
// before it shows up as a slower fleet. The traced row is the replica side of
// every gateway hop: the request carries a traceparent. The outbound half is
// resil's TestTransportAllocCeiling.
func TestInstrumentationAllocCeilings(t *testing.T) {
	productionLogger(t)
	h := middlewareUnderTest(NewRegistry())
	w := &discardWriter{h: http.Header{}}
	sreq := httptest.NewRequest(http.MethodGet, "/v1/domain/example.com/staleness", nil)
	if got := testing.AllocsPerRun(2000, func() { h.ServeHTTP(w, sreq) }); got > 12 {
		t.Errorf("one Middleware request allocates %.0f times, ceiling 12", got)
	}
	// A trace ID per request, as on a gateway hop: one repeated would pile
	// every request's span into a single kept trace.
	traced := make([]*http.Request, 2001)
	for i := range traced {
		traced[i] = httptest.NewRequest(http.MethodGet, "/v1/domain/example.com/staleness", nil)
		traced[i].Header.Set(TraceHeader, NewRequestID().String())
	}
	next := 0
	if got := testing.AllocsPerRun(2000, func() {
		h.ServeHTTP(w, traced[next])
		next++
	}); got > 12 {
		t.Errorf("one Middleware request with a traceparent allocates %.0f times, ceiling 12", got)
	}

}

// A warm registry lookup by label pairs allocates nothing: the variadic
// label slice stays on the caller's stack.
func TestWarmLookupAllocatesNothing(t *testing.T) {
	reg := NewRegistry()
	for _, c := range []struct {
		name string
		look func()
	}{
		{"one pair", func() { reg.Counter("one_total", "service", "svc").Inc() }},
		{"three pairs", func() {
			reg.Histogram("three_seconds", nil, "service", "svc", "route", "/r", "code", "2xx").Observe(1)
		}},
	} {
		c.look()
		if got := testing.AllocsPerRun(1000, c.look); got != 0 {
			t.Errorf("%s: a warm lookup allocates %.0f times, want 0", c.name, got)
		}
	}
}
