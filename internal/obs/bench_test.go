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
	setupLogger(io.Discard, "text", "info")
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

// stubTransport answers from memory with a fresh response per call.
type stubTransport struct{}

func (stubTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: http.NoBody, Request: req}, nil
}

// Allocation ceilings for the two per-request instrumentation paths, a few
// above what they cost today (29 and 18; the race detector adds two): a
// change that reintroduces label formatting, boxed log arguments, a second
// request clone or a lower-cased level per record fails here before it shows
// up as a slower fleet.
func TestInstrumentationAllocCeilings(t *testing.T) {
	productionLogger(t)
	h := middlewareUnderTest(NewRegistry())
	w := &discardWriter{h: http.Header{}}
	sreq := httptest.NewRequest(http.MethodGet, "/v1/domain/example.com/staleness", nil)
	if got := testing.AllocsPerRun(2000, func() { h.ServeHTTP(w, sreq) }); got > 31 {
		t.Errorf("one Middleware request allocates %.0f times, ceiling 31", got)
	}

	tr := &Transport{Base: stubTransport{}, Registry: NewRegistry(), Service: "bench"}
	creq, err := http.NewRequest(http.MethodGet, "http://replica.test/v1/domain/example.com/staleness", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(2000, func() {
		if _, err := tr.RoundTrip(creq); err != nil {
			t.Fatal(err)
		}
	}); got > 22 {
		t.Errorf("one obs.Transport round trip allocates %.0f times, ceiling 22", got)
	}
}
