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
	"stalecert/internal/shard"
)

// nullWriter is a ResponseWriter that costs nothing.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(int)             {}

// BenchmarkGatewayOwnerRouted is one owner-routed staleness query through the
// gateway as the daemon wires it — obs.Middleware over the handler, the
// resilient client with breakers, hedging armed, the daemon's default
// last-good bounds, access logs teed into the ring — against one slice of two
// in-process replicas over loopback. The response cache TTL is a nanosecond,
// so every request is a stored miss that dials a replica, and 4 096 distinct
// domains keep the last-good list as full as a long-running gateway's.
func BenchmarkGatewayOwnerRouted(b *testing.B) {
	prev := slog.Default()
	slog.SetDefault(slog.New(obs.NewTeeHandler(slog.NewTextHandler(io.Discard, nil), nil)))
	defer slog.SetDefault(prev)

	replica := obs.Middleware(obs.NewRegistry(), "staleapid", replicaMux())
	var addrs []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(replica)
		defer ts.Close()
		addrs = append(addrs, ts.URL)
	}
	opts := resil.Options{Service: "stalegw", Breaker: resil.NewBreakerSet(resil.BreakerConfig{Service: "stalegw"})}
	hc := resil.NewHTTPClient(opts)
	defer hc.CloseIdleConnections()
	gw, err := New(Config{
		Map:          shard.NewReplicatedMap(1, shard.DefaultVNodes, [][]string{addrs}),
		Client:       hc,
		CacheTTL:     time.Nanosecond,
		StaleEntries: 1024,
		StaleTTL:     10 * time.Minute,
		HedgeAfter:   30 * time.Millisecond,
		Breakers:     opts.Breaker,
		Health:       obs.NewHealth(),
	})
	if err != nil {
		b.Fatal(err)
	}
	h := obs.Middleware(obs.NewRegistry(), "stalegw", gw.Handler())

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

// replicaMux answers the staleness route with a body the size of a real
// verdict.
func replicaMux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/domain/{e2ld}/staleness", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintf(w, "{\n  \"domain\": %q,\n  \"stale\": false,\n  \"certs\": 3,\n  \"methods\": {\"revocation\": 0, \"registrant_change\": 0, \"managed_tls\": 0},\n  \"cached\": true\n}\n", r.PathValue("e2ld"))
	})
	return mux
}
