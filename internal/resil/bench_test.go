package resil

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// stubReplica answers every round trip with a small 200 from memory, so the
// benchmark measures only what the resil and obs transports add above it.
type stubReplica struct{}

func (stubReplica) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK, Status: "200 OK",
		Header:  http.Header{"Content-Type": {"application/json"}},
		Body:    io.NopCloser(strings.NewReader(`{"domain":"example.com","stale":false}`)),
		Request: req,
	}, nil
}

// BenchmarkTransportRoundTrip is one outbound call through the client stack
// every daemon dials with (resil.Transport → obs.Transport → base): breaker
// gate, call span, attempt span, per-peer metrics and the buffered body. The
// call carries no request ID, so each one is its own trace whose root is the
// call span — the span store settles it on return instead of buffering every
// iteration under one never-finished trace.
func BenchmarkTransportRoundTrip(b *testing.B) {
	hc := InstrumentClient(&http.Client{Transport: stubReplica{}}, Options{Service: "bench"})
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		req, err := http.NewRequest(http.MethodGet, "http://replica.test/v1/domain/example.com/staleness", nil)
		if err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			resp, err := hc.Transport.RoundTrip(req)
			if err != nil {
				b.Error(err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
		}
	})
}
