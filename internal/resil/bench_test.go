package resil

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// stubReplica answers every round trip with a 200 from memory, declared with
// its length as net/http declares a server's, so the benchmark measures only
// what the resil and obs transports add above it.
type stubReplica struct{ body string }

func (s stubReplica) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK, Status: "200 OK",
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(strings.NewReader(s.body)),
		ContentLength: int64(len(s.body)),
		Request:       req,
	}, nil
}

// BenchmarkTransportRoundTrip is one outbound call through the client stack
// every daemon dials with (resil.Transport → obs.Transport → base): breaker
// gate, call span, attempt span, per-peer metrics and the buffered body. The
// call carries no request ID, so each one is its own trace whose root is the
// call span — the span store settles it on return instead of buffering every
// iteration under one never-finished trace. The two bodies are a staleness
// verdict and the size of a full get-entries page.
func BenchmarkTransportRoundTrip(b *testing.B) {
	for _, body := range []string{`{"domain":"example.com","stale":false}`, strings.Repeat("x", 26<<10)} {
		b.Run(fmt.Sprintf("body=%dB", len(body)), func(b *testing.B) {
			hc := InstrumentClient(&http.Client{Transport: stubReplica{body}},
				Options{Service: "bench", Breaker: NewBreakerSet(BreakerConfig{Service: "bench"})})
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
		})
	}
}
