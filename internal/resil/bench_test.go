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
// what the transport adds above it.
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

// BenchmarkTransportRoundTrip is one outbound call through the transport
// every daemon dials with (resil.Transport → base): breaker gate, call span,
// attempt span, per-peer metrics and the buffered body. The call carries no
// request ID, so each one is its own trace whose root is the call span — the
// span store settles it on return instead of buffering every iteration under
// one never-finished trace.
func BenchmarkTransportRoundTrip(b *testing.B) {
	for _, body := range benchBodies {
		b.Run(fmt.Sprintf("body=%dB", len(body)), func(b *testing.B) {
			hc := benchClient(body)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				req, err := http.NewRequest(http.MethodGet, "http://replica.test/v1/domain/example.com/staleness", nil)
				if err != nil {
					b.Error(err)
					return
				}
				for pb.Next() {
					if err := roundTrip(hc, req); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// benchBodies are a staleness verdict and the size of a full get-entries
// page.
var benchBodies = []string{`{"domain":"example.com","stale":false}`, strings.Repeat("x", 26<<10)}

func benchClient(body string) *http.Client {
	return InstrumentClient(&http.Client{Transport: stubReplica{body}},
		Options{Service: "bench", Breaker: NewBreakerSet(BreakerConfig{Service: "bench"})})
}

// roundTrip makes one call through hc's transport and drains its body.
func roundTrip(hc *http.Client, req *http.Request) error {
	resp, err := hc.Transport.RoundTrip(req)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.Body.Close()
}

// TestTransportAllocCeiling caps one call of BenchmarkTransportRoundTrip's
// shape at two above what it costs today (20 at either body size, 21 under
// the race detector): a second request copy, a context value per
// attempt or a label rendered per call fails here.
func TestTransportAllocCeiling(t *testing.T) {
	for _, body := range benchBodies {
		hc := benchClient(body)
		req, err := http.NewRequest(http.MethodGet, "http://replica.test/v1/domain/example.com/staleness", nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(2000, func() {
			if err := roundTrip(hc, req); err != nil {
				t.Fatal(err)
			}
		}); got > 22 {
			t.Errorf("body=%dB: one call allocates %.0f times, ceiling 22", len(body), got)
		}
	}
}
