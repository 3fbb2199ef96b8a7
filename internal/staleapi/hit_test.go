package staleapi

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stalecert/internal/core"
	"stalecert/internal/obs"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

// wantJSON is what obs.WriteJSON sends for v: the reference every stored body
// is compared with.
func wantJSON(t *testing.T, v any) string {
	t.Helper()
	rec := httptest.NewRecorder()
	obs.WriteJSON(rec, http.StatusOK, v)
	return rec.Body.String()
}

// serveOK runs one request through h and checks the framing every 200 shares.
func serveOK(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != obs.JSONContentType {
		t.Fatalf("%s: status %d, Content-Type %q: %s", path, rec.Code, rec.Header().Get("Content-Type"), rec.Body)
	}
	return rec
}

// wantStored checks a response written from stored bytes: the body is the
// reference encoding and Content-Length, set by the handler, is its length.
func wantStored(t *testing.T, what string, rec *httptest.ResponseRecorder, want string) {
	t.Helper()
	if got := rec.Body.String(); got != want {
		t.Fatalf("%s differs from obs.WriteJSON of the same response:\ngot:  %s\nwant: %s", what, got, want)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
		t.Fatalf("%s: Content-Length %q, body is %d bytes", what, cl, len(want))
	}
}

// Over a seeded corpus, what a replica serves from stored or appended bytes is
// byte for byte what obs.WriteJSON encodes for the same response: a
// certificate in both spellings, miss and hit alike, every domain's listing
// and an empty one, and a verdict's miss, its hits with "cached": true, and
// its degraded answer once the evidence fails past the TTL.
func TestHitBytesEqualWriteJSON(t *testing.T) {
	store, domains, certs, evidence := seededCorpus(t, 7, 40)
	now := func() simtime.Day { return simtime.MustParse("2023-01-01") }
	var fail atomic.Bool
	failing := func(ctx context.Context, d string) (core.DomainEvidence, error) {
		if fail.Load() {
			return core.DomainEvidence{}, errors.New("evidence down")
		}
		return evidence(ctx, d)
	}
	srv := NewServer(Config{Store: store, Evidence: failing, Now: now, CacheTTL: time.Hour, CacheEntries: 4096, Health: obs.NewHealth()})
	clock := time.Unix(1000, 0)
	srv.cache.SetClock(func() time.Time { return clock })
	h := srv.Handler()

	for _, c := range certs {
		want := wantJSON(t, certJSON(c))
		fp := c.Fingerprint()
		for _, path := range []string{"/v1/cert/" + fp.String(), "/v1/cert/" + fp.Hex(), "/v1/cert/" + fp.Hex()} {
			wantStored(t, path, serveOK(t, h, path), want)
		}
	}

	byDomain := map[string][]*x509sim.Certificate{}
	for _, c := range certs {
		byDomain[c.Names[0]] = append(byDomain[c.Names[0]], c)
	}
	for _, d := range append(domains, "nothing.example") {
		path := "/v1/domain/" + d + "/certs"
		wantStored(t, path, serveOK(t, h, path), wantJSON(t, domainCertsJSON(d, byDomain[d])))
	}

	staleVerdicts := 0
	verdicts := map[string]StalenessResponse{}
	for _, d := range append(domains, "nothing.example") {
		verdict, err := srv.staleness(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		resp := verdict.resp
		verdicts[d] = resp
		staleVerdicts += len(resp.Stale)
		path := "/v1/domain/" + d + "/staleness"
		wantStored(t, path+" miss", serveOK(t, h, path), wantJSON(t, resp))
		resp.Cached = true
		want := wantJSON(t, resp)
		for i := 0; i < 2; i++ {
			wantStored(t, path+" hit", serveOK(t, h, path), want)
		}
	}
	if staleVerdicts == 0 {
		t.Fatal("no verdict in the corpus lists a stale certificate: the comparison misses the stale array")
	}

	clock = clock.Add(90 * time.Minute)
	fail.Store(true)
	for d, resp := range verdicts {
		resp.Degraded, resp.EvidenceAge = true, "1h30m0s"
		path := "/v1/domain/" + d + "/staleness"
		wantStored(t, path+" degraded", serveOK(t, h, path), wantJSON(t, resp))
	}
}

// A degraded answer is not a hit: it is encoded afresh from the retained
// response, with the markers and the header, whether or not a hit body was
// ever built for the entry.
func TestDegradedAnswerIsReencoded(t *testing.T) {
	store, domains, _, evidence := seededCorpus(t, 3, 6)
	var fail atomic.Bool
	srv := NewServer(Config{Store: store, CacheTTL: time.Minute, Health: obs.NewHealth(),
		Evidence: func(ctx context.Context, d string) (core.DomainEvidence, error) {
			if fail.Load() {
				return core.DomainEvidence{}, errors.New("crl endpoint down")
			}
			return evidence(ctx, d)
		}})
	clock := time.Unix(1000, 0)
	srv.cache.SetClock(func() time.Time { return clock })
	h := srv.Handler()

	hit, missOnly := domains[0], domains[3] // both revoke a certificate
	serveOK(t, h, "/v1/domain/"+hit+"/staleness")
	serveOK(t, h, "/v1/domain/"+hit+"/staleness")
	serveOK(t, h, "/v1/domain/"+missOnly+"/staleness")

	clock = clock.Add(3 * time.Minute)
	fail.Store(true)
	for _, d := range []string{hit, missOnly} {
		fail.Store(false)
		verdict, err := srv.staleness(context.Background(), d)
		fail.Store(true)
		if err != nil || len(verdict.resp.Stale) == 0 {
			t.Fatalf("%s: verdict %+v, %v", d, verdict, err)
		}
		want := verdict.resp
		want.Degraded, want.EvidenceAge = true, "3m0s"
		rec := serveOK(t, h, "/v1/domain/"+d+"/staleness")
		if got := rec.Body.String(); got != wantJSON(t, want) {
			t.Fatalf("%s degraded:\ngot:  %s\nwant: %s", d, got, wantJSON(t, want))
		}
		if got := rec.Header().Get(obs.StaleEvidenceHeader); got != "staleness:"+d+" age=3m0s" {
			t.Fatalf("%s: %s = %q", d, obs.StaleEvidenceHeader, got)
		}
	}
}

// sliceWriter records the very slice a handler passed to Write.
type sliceWriter struct {
	h    http.Header
	body []byte
}

func (w *sliceWriter) Header() http.Header         { return w.h }
func (w *sliceWriter) Write(b []byte) (int, error) { w.body = b; return len(b), nil }
func (w *sliceWriter) WriteHeader(int)             {}

// Concurrent first hits on one verdict build its body once and all write that
// one slice. Run with -race.
func TestConcurrentFirstHitsBuildTheBodyOnce(t *testing.T) {
	store, domains, _, evidence := seededCorpus(t, 5, 4)
	h := NewServer(Config{Store: store, Evidence: evidence, CacheTTL: time.Hour, Health: obs.NewHealth()}).Handler()
	path := "/v1/domain/" + domains[0] + "/staleness"
	serveOK(t, h, path) // the miss

	const n = 16
	writers := make([]*sliceWriter, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range writers {
		writers[i] = &sliceWriter{h: http.Header{}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			h.ServeHTTP(writers[i], httptest.NewRequest(http.MethodGet, path, nil))
		}()
	}
	close(start)
	wg.Wait()
	for i, w := range writers {
		if len(w.body) == 0 || &w.body[0] != &writers[0].body[0] || len(w.body) != len(writers[0].body) {
			t.Fatalf("hit %d wrote its own %d-byte body, not the one built first", i, len(w.body))
		}
	}
}

// Allocation ceilings for a warm replica's two cached answers and its live
// listing, handler only, a couple above what they cost today (8, 6 and 9,
// against 14, 12 and 29 while each went through encoding/json): an answer
// that goes back to reflection fails here before it shows up as a slower
// fleet.
func TestHitAllocCeilings(t *testing.T) {
	store, domains, certs, evidence := seededCorpus(t, 1, 8)
	h := NewServer(Config{Store: store, Evidence: evidence, CacheTTL: time.Hour, Health: obs.NewHealth()}).Handler()
	for _, tc := range []struct {
		name, path string
		ceiling    float64
	}{
		{"cert", "/v1/cert/" + certs[0].Fingerprint().Hex(), 10},
		{"staleness", "/v1/domain/" + domains[0] + "/staleness", 8},
		{"domaincerts", "/v1/domain/" + domains[0] + "/certs", 11},
	} {
		w := &discardWriter{h: http.Header{}}
		req := httptest.NewRequest(http.MethodGet, tc.path, nil)
		h.ServeHTTP(w, req)
		h.ServeHTTP(w, req)
		if got := testing.AllocsPerRun(1000, func() { h.ServeHTTP(w, req) }); got > tc.ceiling {
			t.Errorf("one %s hit allocates %.0f times, ceiling %.0f", tc.name, got, tc.ceiling)
		}
	}
}

// TestMissAllocCeilings caps BenchmarkHandlerMiss's mean two above what it
// costs today (17; 22 while the body went through encoding/json and the
// count read a second copy of the listing): a verdict body that goes back to
// reflection fails here.
func TestMissAllocCeilings(t *testing.T) {
	h, reqs := missRig(t)
	w := &discardWriter{h: http.Header{}}
	i := 0
	if got := testing.AllocsPerRun(len(reqs)*20, func() { h.ServeHTTP(w, reqs[i%len(reqs)]); i++ }); got > 19 {
		t.Errorf("a staleness miss allocates %.0f times, ceiling 19", got)
	}
}
