package stalegw

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"stalecert/internal/obs"
	"stalecert/internal/resil"
)

// nullWriter is a ResponseWriter that costs nothing.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(int)             {}

// benchGateway is the gateway as the daemon wires it — obs.Middleware over
// the handler, the resilient client with breakers, hedging armed, access
// logs teed into the ring by the logger obs.SetupLogger installs — over
// slices × 2 in-process replicas on loopback. The response cache TTL is a
// nanosecond, so every request is a stored miss that dials a replica.
func benchGateway(b *testing.B, slices int, cfg Config) http.Handler {
	prev, prevLevel := slog.Default(), obs.LogLevel()
	obs.SetupLogger(io.Discard, "text", "info")
	b.Cleanup(func() {
		slog.SetDefault(prev)
		obs.SetLogLevel(prevLevel)
	})

	groups := make([][]string, slices)
	for s := range groups {
		replica := obs.Middleware(obs.NewRegistry(), "staleapid", replicaMux(s, slices))
		for i := 0; i < 2; i++ {
			ts := httptest.NewServer(replica)
			b.Cleanup(ts.Close)
			groups[s] = append(groups[s], ts.URL)
		}
	}
	opts := resil.Options{Service: "stalegw", Breaker: resil.NewBreakerSet(resil.BreakerConfig{Service: "stalegw"})}
	hc := resil.NewHTTPClient(opts)
	b.Cleanup(hc.CloseIdleConnections)
	cfg.Client = hc
	cfg.CacheTTL = time.Nanosecond
	cfg.HedgeAfter = 30 * time.Millisecond
	cfg.Breakers = opts.Breaker
	return obs.Middleware(obs.NewRegistry(), "stalegw", newGateway(b, groups, cfg).Handler())
}

// BenchmarkGatewayOwnerRouted is one owner-routed staleness query against one
// slice; 4 096 distinct domains keep the last-good list as full as a
// long-running gateway's.
func BenchmarkGatewayOwnerRouted(b *testing.B) {
	h := benchGateway(b, 1, Config{})
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := &nullWriter{h: http.Header{}}
		for pb.Next() {
			domain := "bench" + strconv.FormatInt(next.Add(1)%4096, 10) + ".com"
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/domain/"+domain+"/staleness", nil))
		}
	})
}

// BenchmarkNullRelay is BenchmarkGatewayOwnerRouted's denominator: the same
// query relayed by the least a gateway can be, http.Client.Get and io.Copy,
// to the same replica behind the same middleware, itself behind the same
// middleware and logger.
func BenchmarkNullRelay(b *testing.B) {
	prev, prevLevel := slog.Default(), obs.LogLevel()
	obs.SetupLogger(io.Discard, "text", "info")
	b.Cleanup(func() {
		slog.SetDefault(prev)
		obs.SetLogLevel(prevLevel)
	})
	replica := httptest.NewServer(obs.Middleware(obs.NewRegistry(), "staleapid", replicaMux(0, 1)))
	b.Cleanup(replica.Close)
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	b.Cleanup(hc.CloseIdleConnections)
	h := obs.Middleware(obs.NewRegistry(), "stalegw", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := hc.Get(replica.URL + r.URL.Path)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	}))
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := &nullWriter{h: http.Header{}}
		for pb.Next() {
			domain := "bench" + strconv.FormatInt(next.Add(1)%4096, 10) + ".com"
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/domain/"+domain+"/staleness", nil))
		}
	})
}

// BenchmarkGatewayCert is one fingerprint lookup over two slices, 400
// fingerprints spread evenly: "scatter" with storage off, so every lookup
// asks both slices as every lookup past the TTL used to, and "hinted" with
// the last-good entries retained, so every timed lookup asks one.
func BenchmarkGatewayCert(b *testing.B) {
	for name, cfg := range map[string]Config{"scatter": {CacheEntries: -1}, "hinted": {}} {
		b.Run(name, func(b *testing.B) {
			h := benchGateway(b, 2, cfg)
			var next atomic.Int64
			lookup := func(w http.ResponseWriter) {
				fp := fmt.Sprintf("%016x%048x", next.Add(1)%400, 0)
				h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/cert/"+fp, nil))
			}
			for i := 0; i < 400; i++ { // the cold pass, where there is anything to retain
				lookup(&nullWriter{h: http.Header{}})
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := &nullWriter{h: http.Header{}}
				for pb.Next() {
					lookup(w)
				}
			})
		})
	}
}

// replicaMux is a replica of one slice: the staleness route answers with a
// body the size of a real verdict, the fingerprint route with one the size of
// a certificate when the last digit of the fingerprint's short form falls on
// this slice.
func replicaMux(slice, slices int) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/domain/{e2ld}/staleness", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintf(w, "{\n  \"domain\": %q,\n  \"stale\": false,\n  \"certs\": 3,\n  \"methods\": {\"revocation\": 0, \"registrant_change\": 0, \"managed_tls\": 0},\n  \"cached\": true\n}\n", r.PathValue("e2ld"))
	})
	mux.HandleFunc("GET /v1/cert/{fp}", func(w http.ResponseWriter, r *http.Request) {
		fp := r.PathValue("fp")
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if int(fp[15])%slices != slice {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, "{\n  \"error\": \"unknown fingerprint\"\n}\n")
			return
		}
		fmt.Fprintf(w, "{\n  \"fingerprint\": %q,\n  \"fingerprint_short\": %q,\n  \"serial\": 20,\n  \"issuer\": 2,\n  \"key\": 20,\n  \"names\": [\n    \"bench.com\",\n    \"www.bench.com\"\n  ],\n  \"not_before\": \"2021-03-01\",\n  \"not_after\": \"2022-04-03\",\n  \"usage\": \"serverAuth\",\n  \"precert\": false,\n  \"sct_count\": 2\n}\n", fp, fp[:16])
	})
	return mux
}
