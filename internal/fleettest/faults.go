package fleettest

import (
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"stalecert/internal/obs"
)

// Rates sets per-kind injection probabilities (each in [0,1], evaluated in
// the order error, 5xx, torn body, latency, blackhole — at most one fault
// fires per request).
type Rates struct {
	Error     float64
	Status5xx float64
	TornBody  float64
	Latency   float64
	Blackhole float64
}

// DefaultRates splits a total fault probability across kinds with weights
// that mirror wild failure modes: mostly hard errors and 5xx, some torn
// bodies and latency, a sliver of blackholes.
func DefaultRates(total float64) Rates {
	return Rates{
		Error:     total * 0.35,
		Status5xx: total * 0.25,
		TornBody:  total * 0.20,
		Latency:   total * 0.15,
		Blackhole: total * 0.05,
	}
}

// What a torn-body fault lets through, and what a latency fault adds.
const (
	tornAfter    = 64
	faultLatency = 200 * time.Millisecond
)

// Faults is a seeded fault stream: one uniform draw per proxied request
// decides whether it fails and how, so the injected sequence is fixed by the
// seed and the order requests arrive in. Proxies sharing one Faults share
// the stream.
type Faults struct {
	rates Rates
	mu    sync.Mutex
	rng   *rand.Rand
}

// NewFaults creates a fault stream with a deterministic seed.
func NewFaults(seed int64, rates Rates) *Faults {
	return &Faults{rates: rates, rng: rand.New(rand.NewSource(seed))}
}

// pick decides the fault kind, "" for none, of one request. A single draw is
// compared against stacked rate bands, so the per-request distribution
// matches Rates while each request consumes exactly one variate.
func (fs *Faults) pick() string {
	fs.mu.Lock()
	v := fs.rng.Float64()
	fs.mu.Unlock()
	for _, band := range []struct {
		kind string
		rate float64
	}{
		{"error", fs.rates.Error},
		{"status_5xx", fs.rates.Status5xx},
		{"torn_body", fs.rates.TornBody},
		{"latency", fs.rates.Latency},
		{"blackhole", fs.rates.Blackhole},
	} {
		if v < band.rate {
			return band.kind
		}
		v -= band.rate
	}
	return ""
}

// Proxy serves target (a member's URL) through the fault stream until the
// test ends, and returns the proxy's URL. Each request draws once and, on a
// fault, counts it in obs.Default()'s resil_chaos_injections_total{kind}:
//
//   - error: a partial status line, then the connection closes;
//   - status_5xx: a 503 with Retry-After: 0, target untouched;
//   - torn_body: target's response cut after 64 bytes (unexpected EOF);
//   - latency: 200 ms, then target's response;
//   - blackhole: nothing, until the client hangs up.
func (fs *Faults) Proxy(t testing.TB, target string) string {
	host := strings.TrimPrefix(target, "http://")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind := fs.pick()
		if kind != "" {
			obs.Default().Counter("resil_chaos_injections_total", "kind", kind).Inc()
		}
		switch kind {
		case "error":
			// Not a bare close: net/http replays a request whose kept
			// connection closes before the first response byte, and the
			// client would never see the fault.
			if conn, _, err := http.NewResponseController(w).Hijack(); err == nil {
				_, _ = conn.Write([]byte("HTTP/1.1 5")) // unwritten, the close is still a fault
				_ = conn.Close()
			}
			return
		case "status_5xx":
			w.Header().Set("Retry-After", "0")
			http.Error(w, "injected 503", http.StatusServiceUnavailable)
			return
		case "blackhole":
			<-r.Context().Done()
			return
		case "latency":
			select {
			case <-r.Context().Done():
				return
			case <-time.After(faultLatency):
			}
		}
		out := r.Clone(r.Context())
		out.RequestURI, out.Host = "", ""
		out.URL.Scheme, out.URL.Host = "http", host
		resp, err := http.DefaultTransport.RoundTrip(out)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		maps.Copy(w.Header(), resp.Header)
		if kind != "torn_body" {
			w.WriteHeader(resp.StatusCode)
			_, _ = io.Copy(w, resp.Body) // a client gone mid-body has nobody to tell
			return
		}
		w.Header().Del("Content-Length")
		w.WriteHeader(resp.StatusCode)
		_, _ = io.CopyN(w, resp.Body, tornAfter) // torn either way
		_ = http.NewResponseController(w).Flush()
		panic(http.ErrAbortHandler) // the server drops the connection mid-body
	}))
	t.Cleanup(func() {
		srv.CloseClientConnections() // ends any blackhole still holding on
		srv.Close()
	})
	return srv.URL
}
