package obs

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
)

// seriesValue reads one series out of a snapshot (0 when absent).
func seriesValue(reg *Registry, name, labels string) float64 {
	for _, s := range reg.Snapshot() {
		if s.Name == name && s.Labels == labels {
			if s.Kind == KindHistogram {
				return float64(s.Count)
			}
			return s.Value
		}
	}
	return 0
}

// The per-(route, code) lookups Middleware makes on every request resolve by
// argument, without rendering labels. They must land in the very series a
// spelled-out reg.Counter call returns and a snapshot lists.
func TestRequestSeriesResolveByArgument(t *testing.T) {
	reg := NewRegistry()
	h := MiddlewareSpans(reg, NewSpanStore(8, 0, 0), "svc", middlewareMux(t, nil))
	for _, path := range []string{"/crl/LetsEncrypt", "/crl/Sectigo", "/fail"} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
	}
	// Label pairs in another order than the call sites pass them: the same
	// series, reached through the rendered name.
	for _, c := range []struct {
		got  uint64
		want uint64
		what string
	}{
		{reg.Counter("http_requests_total", "code", "2xx", "route", "/crl/{ca}", "service", "svc").Value(), 2, "2xx server requests"},
		{reg.Counter("http_requests_total", "route", "/fail", "code", "5xx", "service", "svc").Value(), 1, "5xx server requests"},
		{reg.Histogram("http_request_seconds", nil, "route", "/crl/{ca}", "service", "svc").Count(), 2, "server latency observations"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.what, c.got, c.want)
		}
	}
	if v := seriesValue(reg, "http_requests_total", `{code="2xx",route="/crl/{ca}",service="svc"}`); v != 2 {
		t.Errorf("snapshot lists %v 2xx server requests, want 2", v)
	}
}

// Looking a series up as another kind panics on the by-argument path exactly
// as it does on the rendered one.
func TestLookupKindMismatchPanicsOnRepeat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("things_total", "k", "v").Inc()
	reg.Counter("things_total", "k", "v").Inc()
	defer func() {
		if recover() == nil {
			t.Fatal("counter looked up as a gauge did not panic")
		}
	}()
	reg.Gauge("things_total", "k", "v")
}

// Span and trace IDs come from math/rand/v2, not the kernel: 10⁶ of them
// minted from 8 goroutines at once must still be non-zero, distinct, and
// round-trip through the traceparent header.
func TestSpanIDsUniqueAcrossGoroutines(t *testing.T) {
	const workers, perWorker = 8, 125_000
	spans := make([][8]byte, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(out [][8]byte) {
			defer wg.Done()
			id := NewRequestID()
			for i := range out {
				if i%1000 == 0 {
					id = NewRequestID()
				} else {
					id = id.Child()
				}
				if id.IsZero() || id.SpanID == [8]byte{} {
					t.Errorf("minted a zero ID: %s", id)
					return
				}
				if back, ok := ParseTraceparent(id.String()); !ok || back != id {
					t.Errorf("%s does not round-trip (got %s, ok=%v)", id, back, ok)
					return
				}
				out[i] = id.SpanID
			}
		}(spans[w*perWorker : (w+1)*perWorker])
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	slices.SortFunc(spans, func(a, b [8]byte) int { return slices.Compare(a[:], b[:]) })
	for i := 1; i < len(spans); i++ {
		if spans[i] == spans[i-1] {
			t.Fatalf("span ID %x minted twice in %d", spans[i], len(spans))
		}
	}
}
