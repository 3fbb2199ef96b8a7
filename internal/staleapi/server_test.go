package staleapi

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stalecert/internal/certstore"
	"stalecert/internal/core"
	"stalecert/internal/crl"
	"stalecert/internal/obs"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

func apiCert(t *testing.T, serial uint64, names []string, nb, na simtime.Day) *x509sim.Certificate {
	t.Helper()
	c, err := x509sim.New(x509sim.SerialNumber(serial), x509sim.IssuerID(serial%3+1), x509sim.KeyID(serial), names, nb, na)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// newTestStore builds a store with three certs: a plain one, a second-domain
// one, and a provider-managed one.
func newTestStore(t *testing.T) (*certstore.Store, []*x509sim.Certificate) {
	t.Helper()
	s, err := certstore.Open(certstore.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	certs := []*x509sim.Certificate{
		apiCert(t, 1, []string{"alpha.com", "www.alpha.com"}, 100, 900),
		apiCert(t, 2, []string{"beta.org"}, 100, 900),
		apiCert(t, 3, []string{"gamma.net", "sni9.cloudflaressl.com"}, 100, 900),
	}
	if _, err := s.Append(certs); err != nil {
		t.Fatal(err)
	}
	return s, certs
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestCertEndpoint(t *testing.T) {
	store, certs := newTestStore(t)
	srv := NewServer(Config{Store: store, Health: obs.NewHealth()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fp := certs[0].Fingerprint()
	resp, body := get(t, ts, "/v1/cert/"+fp.Hex())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full fp status = %d: %s", resp.StatusCode, body)
	}
	var cj CertJSON
	if err := json.Unmarshal(body, &cj); err != nil {
		t.Fatal(err)
	}
	if cj.Fingerprint != fp.Hex() || cj.Serial != 1 || len(cj.Names) != 2 {
		t.Fatalf("cert payload = %+v", cj)
	}

	resp, body = get(t, ts, "/v1/cert/"+fp.String()) // 16-hex short form
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("short fp status = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &cj); err != nil || cj.Serial != 1 {
		t.Fatalf("short lookup payload = %+v, %v", cj, err)
	}

	resp, _ = get(t, ts, "/v1/cert/"+strings.Repeat("ab", 32))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown fp status = %d", resp.StatusCode)
	}
	resp, _ = get(t, ts, "/v1/cert/not-hex")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed fp status = %d", resp.StatusCode)
	}
}

func TestDomainCertsEndpoint(t *testing.T) {
	store, _ := newTestStore(t)
	srv := NewServer(Config{Store: store, Health: obs.NewHealth()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := get(t, ts, "/v1/domain/ALPHA.COM./certs") // canonicalised
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var dc DomainCertsResponse
	if err := json.Unmarshal(body, &dc); err != nil {
		t.Fatal(err)
	}
	if dc.Domain != "alpha.com" || len(dc.Certs) != 1 || dc.Certs[0].Serial != 1 {
		t.Fatalf("payload = %+v", dc)
	}

	resp, body = get(t, ts, "/v1/domain/nothing.net/certs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("miss status = %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &dc); err != nil || len(dc.Certs) != 0 {
		t.Fatalf("miss payload = %+v, %v", dc, err)
	}

	resp, _ = get(t, ts, "/v1/domain/bad..name/certs")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad domain status = %d", resp.StatusCode)
	}
}

func TestStalenessEndpointCachesEvidence(t *testing.T) {
	store, certs := newTestStore(t)
	var calls atomic.Int32
	evidence := func(ctx context.Context, domain string) (core.DomainEvidence, error) {
		calls.Add(1)
		return core.DomainEvidence{
			Revocations: []crl.Entry{
				{Issuer: certs[0].Issuer, Serial: 1, RevokedAt: 500, Reason: crl.KeyCompromise},
			},
			RevocationCutoff: simtime.NoDay,
		}, nil
	}
	srv := NewServer(Config{
		Store:    store,
		Evidence: evidence,
		Now:      func() simtime.Day { return simtime.MustParse("2023-01-01") },
		CacheTTL: time.Hour,
		Health:   obs.NewHealth(),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := get(t, ts, "/v1/domain/alpha.com/staleness")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var sr StalenessResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Cached || sr.CertsIndexed != 1 || len(sr.Stale) != 1 {
		t.Fatalf("first payload = %+v", sr)
	}
	if sr.Stale[0].Fingerprint != certs[0].Fingerprint().Hex() || sr.Stale[0].Reason == "" {
		t.Fatalf("verdict = %+v", sr.Stale[0])
	}
	if calls.Load() != 1 {
		t.Fatalf("evidence calls = %d", calls.Load())
	}

	// Second query is served from the cache: no new evidence fetch.
	_, body = get(t, ts, "/v1/domain/alpha.com/staleness")
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Cached || len(sr.Stale) != 1 {
		t.Fatalf("second payload = %+v", sr)
	}
	if calls.Load() != 1 {
		t.Fatalf("cached query refetched evidence: calls = %d", calls.Load())
	}
}

func TestStalenessEvidenceErrors(t *testing.T) {
	store, _ := newTestStore(t)
	boom := errors.New("whois unreachable")
	srv := NewServer(Config{
		Store:    store,
		Evidence: func(context.Context, string) (core.DomainEvidence, error) { return core.DomainEvidence{}, boom },
		Health:   obs.NewHealth(),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := get(t, ts, "/v1/domain/alpha.com/staleness")
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "whois unreachable") {
		t.Fatalf("body = %s", body)
	}

	timeoutSrv := NewServer(Config{
		Store: store,
		Evidence: func(context.Context, string) (core.DomainEvidence, error) {
			return core.DomainEvidence{}, context.DeadlineExceeded
		},
		Health: obs.NewHealth(),
	})
	ts2 := httptest.NewServer(timeoutSrv.Handler())
	defer ts2.Close()
	resp, _ = get(t, ts2, "/v1/domain/alpha.com/staleness")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timeout status = %d", resp.StatusCode)
	}
}

// TestStalenessServesDegradedFromLastGood is the serve-stale contract: when
// live evidence fails but an expired verdict is retained, the endpoint
// answers 200 with "degraded": true, the evidence age, and an
// X-Stale-Evidence header instead of a 502.
func TestStalenessServesDegradedFromLastGood(t *testing.T) {
	store, certs := newTestStore(t)
	var fail atomic.Bool
	evidence := func(ctx context.Context, domain string) (core.DomainEvidence, error) {
		if fail.Load() {
			return core.DomainEvidence{}, errors.New("crl endpoint down")
		}
		return core.DomainEvidence{
			Revocations: []crl.Entry{
				{Issuer: certs[0].Issuer, Serial: 1, RevokedAt: 500, Reason: crl.KeyCompromise},
			},
			RevocationCutoff: simtime.NoDay,
		}, nil
	}
	srv := NewServer(Config{
		Store:    store,
		Evidence: evidence,
		Now:      func() simtime.Day { return simtime.MustParse("2023-01-01") },
		CacheTTL: time.Minute,
		Health:   obs.NewHealth(),
	})
	clock := time.Unix(1000, 0)
	srv.cache.SetClock(func() time.Time { return clock })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Healthy round: fresh verdict, no degradation.
	resp, body := get(t, ts, "/v1/domain/alpha.com/staleness")
	var sr StalenessResponse
	if err := json.Unmarshal(body, &sr); err != nil || sr.Degraded || len(sr.Stale) != 1 {
		t.Fatalf("healthy payload = %+v, %v", sr, err)
	}
	if h := resp.Header.Get(obs.StaleEvidenceHeader); h != "" {
		t.Fatalf("healthy response carries %s: %q", obs.StaleEvidenceHeader, h)
	}

	// Entry expires and evidence starts failing: last-good served degraded.
	clock = clock.Add(3 * time.Minute)
	fail.Store(true)
	resp, body = get(t, ts, "/v1/domain/alpha.com/staleness")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded status = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Degraded || sr.EvidenceAge != "3m0s" || len(sr.Stale) != 1 {
		t.Fatalf("degraded payload = %+v", sr)
	}
	if h := resp.Header.Get(obs.StaleEvidenceHeader); !strings.Contains(h, "alpha.com") {
		t.Fatalf("%s = %q", obs.StaleEvidenceHeader, h)
	}

	// A domain with no retained verdict still surfaces the hard error.
	resp, _ = get(t, ts, "/v1/domain/beta.org/staleness")
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("cold-domain status = %d", resp.StatusCode)
	}

	// Recovery: evidence heals, the next query replaces the stale entry.
	fail.Store(false)
	_, body = get(t, ts, "/v1/domain/alpha.com/staleness")
	sr = StalenessResponse{} // degraded/evidence_age are omitempty: start clean
	if err := json.Unmarshal(body, &sr); err != nil || sr.Degraded || sr.EvidenceAge != "" {
		t.Fatalf("recovered payload = %+v, %v", sr, err)
	}
}

// staleapid's response cache exports these seven families under these names:
// the benchmark's hit-ratio gate reads them from every replica's /metrics.
func TestCacheMetricFamilies(t *testing.T) {
	store, _ := newTestStore(t)
	NewServer(Config{Store: store, Health: obs.NewHealth()})
	have := map[string]bool{}
	for _, s := range obs.Default().Snapshot() {
		have[s.Name] = true
	}
	for _, name := range []string{"staleapi_cache_hits_total", "staleapi_cache_misses_total",
		"staleapi_cache_evictions_total", "staleapi_cache_expired_total", "staleapi_cache_stale_served_total",
		"staleapi_singleflight_shared_total", "staleapi_cache_entries"} {
		if !have[name] {
			t.Errorf("no %s in the registry", name)
		}
	}
}

// TestCacheHitServedWhileEvidenceFails: a hit gathers nothing, so with
// evidence failing a hot key is still served from the cache between the
// misses that fail, and a miss answers again once evidence heals.
func TestCacheHitServedWhileEvidenceFails(t *testing.T) {
	store, _ := newTestStore(t)
	var fail atomic.Bool
	srv := NewServer(Config{
		Store: store,
		Evidence: func(context.Context, string) (core.DomainEvidence, error) {
			if fail.Load() {
				return core.DomainEvidence{}, errors.New("whois unreachable")
			}
			return core.DomainEvidence{RevocationCutoff: simtime.NoDay}, nil
		},
		CacheTTL: time.Hour,
		Health:   obs.NewHealth(),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, body := get(t, ts, "/v1/domain/alpha.com/staleness"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy miss = %d: %s", resp.StatusCode, body)
	}
	fail.Store(true)
	if resp, _ := get(t, ts, "/v1/domain/beta.org/staleness"); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("failing miss = %d", resp.StatusCode)
	}
	_, body := get(t, ts, "/v1/domain/alpha.com/staleness")
	var sr StalenessResponse
	if err := json.Unmarshal(body, &sr); err != nil || !sr.Cached {
		t.Fatalf("hot key = %+v, %v, want a cache hit", sr, err)
	}
	fail.Store(false)
	if resp, body := get(t, ts, "/v1/domain/gamma.net/staleness"); resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered miss = %d: %s", resp.StatusCode, body)
	}
}

func TestStalenessNilEvidenceReportsEmpty(t *testing.T) {
	store, _ := newTestStore(t)
	srv := NewServer(Config{Store: store, Health: obs.NewHealth()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, body := get(t, ts, "/v1/domain/alpha.com/staleness")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var sr StalenessResponse
	if err := json.Unmarshal(body, &sr); err != nil || len(sr.Stale) != 0 || sr.CertsIndexed != 1 {
		t.Fatalf("payload = %+v, %v", sr, err)
	}
}

// TestReadyzFlips exercises the acceptance path: /readyz answers 503 while a
// probe fails and 200 once it is marked OK — the same flip staleapid's
// ingest-caught-up probe performs after its first successful sync.
func TestReadyzFlips(t *testing.T) {
	store, _ := newTestStore(t)
	health := obs.NewHealth()
	ready := obs.NewReady("ingest not caught up")
	health.Register("ingest-caught-up", ready.Probe)
	srv := NewServer(Config{Store: store, Health: health})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := get(t, ts, "/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("warming readyz = %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "ingest not caught up") {
		t.Fatalf("readyz body = %s", body)
	}
	resp, _ = get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while warming = %d", resp.StatusCode)
	}

	ready.OK()
	resp, body = get(t, ts, "/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ready readyz = %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "ready ingest-caught-up") {
		t.Fatalf("readyz body = %s", body)
	}
}

// TestStalenessMissRecordsStageSpans: a traced cache miss leaves the
// evidence and detect stages as spans directly under the request's server
// span; a cache hit runs neither and records the server span alone.
func TestStalenessMissRecordsStageSpans(t *testing.T) {
	spans := obs.NewSpanStore(8, 1, 0)
	spans.Registry = obs.NewRegistry()
	defer obs.SetDefaultSpans(obs.DefaultSpans())
	obs.SetDefaultSpans(spans)

	store, _ := newTestStore(t)
	srv := NewServer(Config{
		Store: store,
		Evidence: func(context.Context, string) (core.DomainEvidence, error) {
			return core.DomainEvidence{RevocationCutoff: simtime.NoDay}, nil
		},
		Now:      func() simtime.Day { return simtime.MustParse("2023-01-01") },
		CacheTTL: time.Hour,
		Health:   obs.NewHealth(),
	})
	ts := httptest.NewServer(obs.Middleware(obs.NewRegistry(), "staleapid", srv.Handler()))
	defer ts.Close()

	for _, want := range [][]string{{"evidence", "detect"}, nil} { // miss, then hit
		if resp, body := get(t, ts, "/v1/domain/alpha.com/staleness"); resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d: %s", resp.StatusCode, body)
		}
		tr := spans.Traces(obs.TraceFilter{Limit: 1, WithSpans: true})[0]
		roots := obs.BuildSpanTree(tr.Spans)
		if len(roots) != 1 || roots[0].Kind != obs.SpanServer {
			t.Fatalf("trace roots = %+v", roots)
		}
		var got []string
		for _, c := range roots[0].Children {
			if c.Kind != obs.SpanStage || c.Service != "staleapid" || len(c.Children) != 0 {
				t.Errorf("child span = %+v", c.SpanRecord)
			}
			got = append(got, c.Name)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("stage spans under the server span = %v, want %v", got, want)
		}
	}
}
