package staleapi

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"stalecert/internal/certstore"
	"stalecert/internal/core"
	"stalecert/internal/crl"
	"stalecert/internal/obs"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

// seededCorpus is a store of n domains with one to eight certificates each
// (a full listing is the benchmark's ≈ 2.5 KB), and an evidence function
// that revokes the first certificate of every third domain, so some verdicts
// carry a stale entry and most do not.
func seededCorpus(tb testing.TB, seed int64, n int) (store *certstore.Store, domains []string, certs []*x509sim.Certificate, evidence EvidenceFunc) {
	tb.Helper()
	rnd := rand.New(rand.NewSource(seed))
	revoked := map[string][]crl.Entry{}
	for d := 0; d < n; d++ {
		domain := fmt.Sprintf("corpus%d-%03d.com", seed, d)
		domains = append(domains, domain)
		for k, count := 0, 1+rnd.Intn(8); k < count; k++ {
			serial := x509sim.SerialNumber(len(certs) + 1)
			nb := simtime.Day(100 + rnd.Intn(300))
			c, err := x509sim.New(serial, x509sim.IssuerID(1+rnd.Intn(3)), x509sim.KeyID(serial),
				[]string{domain, "www." + domain}, nb, nb+398)
			if err != nil {
				tb.Fatal(err)
			}
			if k == 0 && d%3 == 0 {
				revoked[domain] = []crl.Entry{{Issuer: c.Issuer, Serial: c.Serial, RevokedAt: nb + 50, Reason: crl.KeyCompromise}}
			}
			certs = append(certs, c)
		}
	}
	store, err := certstore.Open(certstore.Options{Dir: tb.TempDir()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { store.Close() })
	if _, err := store.Append(certs); err != nil {
		tb.Fatal(err)
	}
	evidence = func(_ context.Context, domain string) (core.DomainEvidence, error) {
		return core.DomainEvidence{Revocations: revoked[domain], RevocationCutoff: simtime.NoDay}, nil
	}
	return store, domains, certs, evidence
}

// discardWriter is a ResponseWriter that costs nothing, its header map kept
// across requests as net/http keeps a connection's.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// BenchmarkHandlerHit is one request per endpoint against a warm replica,
// handler only (no middleware, no socket): what a cache hit costs between
// the 64–96 ns Cache.Do and the bytes on the wire. /certs has no cache and is
// the control.
func BenchmarkHandlerHit(b *testing.B) {
	store, domains, certs, evidence := seededCorpus(b, 1, 64)
	h := NewServer(Config{Store: store, Evidence: evidence, CacheTTL: time.Hour, Health: obs.NewHealth()}).Handler()
	for _, bc := range []struct{ name, path string }{
		{"cert", "/v1/cert/" + certs[0].Fingerprint().Hex()},
		{"staleness", "/v1/domain/" + domains[0] + "/staleness"}, // its verdict lists a revoked certificate
		{"domaincerts", "/v1/domain/" + domains[0] + "/certs"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			w := &discardWriter{h: http.Header{}}
			req := httptest.NewRequest(http.MethodGet, bc.path, nil)
			h.ServeHTTP(w, req) // the miss that fills the cache
			h.ServeHTTP(w, req) // the first hit, which builds a verdict's body
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.ServeHTTP(w, req)
			}
		})
	}
}

// missRig is a replica whose staleness cache holds 16 verdicts and the
// requests for 64 domains asked in turn, so every request misses and evicts,
// as on a key space larger than the cache. A third of the verdicts list a
// revoked certificate.
func missRig(tb testing.TB) (http.Handler, []*http.Request) {
	store, domains, _, evidence := seededCorpus(tb, 1, 64)
	h := NewServer(Config{Store: store, Evidence: evidence, CacheEntries: 16, CacheTTL: time.Hour, Health: obs.NewHealth()}).Handler()
	reqs := make([]*http.Request, len(domains))
	for i, d := range domains {
		reqs[i] = httptest.NewRequest(http.MethodGet, "/v1/domain/"+d+"/staleness", nil)
	}
	return h, reqs
}

// BenchmarkHandlerMiss is a staleness request that misses the cache, handler
// only: the detector's run over the store, the verdict's body and the cache
// insert. The evidence is an in-memory map, so no source is asked.
func BenchmarkHandlerMiss(b *testing.B) {
	h, reqs := missRig(b)
	b.Run("staleness", func(b *testing.B) {
		w := &discardWriter{h: http.Header{}}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.ServeHTTP(w, reqs[i%len(reqs)])
		}
	})
}
