package evidence

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stalecert/internal/certstore"
	"stalecert/internal/dnssim"
	"stalecert/internal/obs"
	"stalecert/internal/simtime"
	"stalecert/internal/staleapi"
	"stalecert/internal/whois"
)

// api serves the rig's certificates from a certstore through staleapi, wired
// as cmd/staleapid wires it: the rig's gatherer over the store, and an
// evidence probe folding the server's last gather, the gatherer's per-source
// memory and the snapshot's lagging CAs. Every request is a miss (1 ns TTL)
// whose verdict is retained as last-good.
func (r *rig) api(t *testing.T) *httptest.Server {
	t.Helper()
	store, err := certstore.Open(certstore.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	if _, err := store.Append(r.certs); err != nil {
		t.Fatal(err)
	}
	g := r.gather
	g.Index = store
	health := obs.NewHealth()
	srv := staleapi.NewServer(staleapi.Config{
		Store:    store,
		Evidence: g.Gather,
		Now:      func() simtime.Day { return rigNow },
		CacheTTL: time.Nanosecond,
		Health:   health,
	})
	health.Register("evidence", func(ctx context.Context) error {
		if err := srv.EvidenceProbe(ctx); err != nil {
			return err
		}
		return obs.Degraded(g.Failing())
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func fetch(t *testing.T, ts *httptest.Server, path string) (*http.Response, string) {
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
	return resp, string(body)
}

// TestDNSDownFailsOnlyDomainsThatAskDNS: with the DNS server gone, a domain
// holding no valid provider-managed certificate answers 200 with the body the
// healthy fleet gave, and one that holds such a certificate is served its
// last-good verdict marked degraded, or a 502 when none is retained. The
// evidence probe names dns from the first failed ask until a delegation
// question is answered again: the misses that ask DNS nothing do not clear it.
func TestDNSDownFailsOnlyDomainsThatAskDNS(t *testing.T) {
	r := newRig(t, 7)
	ts := r.api(t)

	var plain, managed []string
	for _, domain := range r.domains {
		if _, dnsAsked := r.asks(domain); dnsAsked {
			managed = append(managed, domain)
		} else {
			plain = append(plain, domain)
		}
	}
	if len(plain) < 20 || len(managed) < 20 {
		t.Fatalf("rig has %d domains that ask DNS and %d that do not; want 20 of each", len(managed), len(plain))
	}
	plain, warm, cold := plain[:20], managed[:10], managed[10:20]

	healthy := map[string]string{}
	for _, domain := range append(append([]string{}, plain...), warm...) {
		resp, body := fetch(t, ts, "/v1/domain/"+domain+"/staleness")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthy %s = %d: %s", domain, resp.StatusCode, body)
		}
		healthy[domain] = body
	}
	if resp, body := fetch(t, ts, "/readyz"); resp.StatusCode != http.StatusOK || strings.Contains(body, "degraded") {
		t.Fatalf("healthy readyz = %d: %s", resp.StatusCode, body)
	}

	if err := r.dnsSrv.Close(); err != nil {
		t.Fatal(err)
	}
	for _, domain := range cold {
		resp, body := fetch(t, ts, "/v1/domain/"+domain+"/staleness")
		if resp.StatusCode != http.StatusBadGateway || !strings.Contains(body, "dns "+domain) {
			t.Fatalf("DNS down, nothing retained for %s = %d: %s, want a 502 naming the DNS question", domain, resp.StatusCode, body)
		}
	}
	for _, domain := range warm {
		resp, body := fetch(t, ts, "/v1/domain/"+domain+"/staleness")
		var sr staleapi.StalenessResponse
		if err := json.Unmarshal([]byte(body), &sr); err != nil || resp.StatusCode != http.StatusOK || !sr.Degraded {
			t.Fatalf("DNS down, last-good retained for %s = %d: %s (%v), want 200 degraded", domain, resp.StatusCode, body, err)
		}
		if h := resp.Header.Get(obs.StaleEvidenceHeader); !strings.Contains(h, domain) {
			t.Fatalf("%s = %q, want it to name %s", obs.StaleEvidenceHeader, h, domain)
		}
	}
	for _, domain := range plain {
		resp, body := fetch(t, ts, "/v1/domain/"+domain+"/staleness")
		if resp.StatusCode != http.StatusOK || body != healthy[domain] {
			t.Fatalf("DNS down, %s asks it nothing = %d:\n%s\nhealthy:\n%s", domain, resp.StatusCode, body, healthy[domain])
		}
		if resp, body := fetch(t, ts, "/readyz"); resp.StatusCode != http.StatusOK || !strings.Contains(body, "degraded evidence") || !strings.Contains(body, "dns ") {
			t.Fatalf("readyz after a miss that asked DNS nothing = %d: %s, want 200 degraded naming dns", resp.StatusCode, body)
		}
	}

	// The server comes back on its address: the next delegation question that
	// is answered clears the probe, and the domain's live verdict is back.
	back := dnssim.NewServer(r.dnsStore)
	if _, err := back.Start(r.gather.Resolver.ServerAddr); err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	resp, body := fetch(t, ts, "/v1/domain/"+warm[0]+"/staleness")
	if resp.StatusCode != http.StatusOK || body != healthy[warm[0]] {
		t.Fatalf("DNS back, %s = %d:\n%s\nhealthy:\n%s", warm[0], resp.StatusCode, body, healthy[warm[0]])
	}
	if resp, body := fetch(t, ts, "/readyz"); resp.StatusCode != http.StatusOK || strings.Contains(body, "degraded") {
		t.Fatalf("readyz after DNS answered again = %d: %s", resp.StatusCode, body)
	}
}

// TestDeadRegistryDoesNotFailDomainsTheIndexHasNeverSeen: a name without
// certificates cannot have a registrant-change verdict, so it answers 200 and
// empty without a connection to the registry — here a listener that counts
// what it accepts and hangs up without a word — while a domain that holds
// certificates asks and fails.
func TestDeadRegistryDoesNotFailDomainsTheIndexHasNeverSeen(t *testing.T) {
	r := newRig(t, 7)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			_ = conn.Close()
		}
	}()
	r.gather.Whois = &whois.Client{Addr: ln.Addr().String()}
	ts := r.api(t)

	for _, domain := range []string{"made-up-0001.com", "made-up-0002.com", "nocerts.com"} {
		resp, body := fetch(t, ts, "/v1/domain/"+domain+"/staleness")
		var sr staleapi.StalenessResponse
		if err := json.Unmarshal([]byte(body), &sr); err != nil || resp.StatusCode != http.StatusOK ||
			sr.CertsIndexed != 0 || sr.Stale == nil || len(sr.Stale) != 0 {
			t.Fatalf("%s = %d: %s (%v), want 200 with certs_indexed 0 and stale []", domain, resp.StatusCode, body, err)
		}
	}
	if n := accepted.Load(); n != 0 {
		t.Fatalf("the registry accepted %d connections for names the index has never seen", n)
	}
	if resp, body := fetch(t, ts, "/readyz"); resp.StatusCode != http.StatusOK || strings.Contains(body, "degraded") {
		t.Fatalf("readyz = %d: %s", resp.StatusCode, body)
	}

	resp, body := fetch(t, ts, "/v1/domain/"+r.domains[0]+"/staleness")
	if resp.StatusCode != http.StatusBadGateway || !strings.Contains(body, "whois "+r.domains[0]) {
		t.Fatalf("%s holds certificates: %d: %s, want a 502 naming the WHOIS query", r.domains[0], resp.StatusCode, body)
	}
	if n := accepted.Load(); n != 1 {
		t.Fatalf("the registry accepted %d connections, want the one ask", n)
	}
	if resp, body := fetch(t, ts, "/readyz"); resp.StatusCode != http.StatusOK || !strings.Contains(body, "degraded evidence") {
		t.Fatalf("readyz after the failed ask = %d: %s", resp.StatusCode, body)
	}
	// Another made-up name neither asks nor clears it.
	if resp, body := fetch(t, ts, "/v1/domain/made-up-0003.com/staleness"); resp.StatusCode != http.StatusOK {
		t.Fatalf("made-up-0003.com = %d: %s", resp.StatusCode, body)
	}
	if resp, body := fetch(t, ts, "/readyz"); resp.StatusCode != http.StatusOK || !strings.Contains(body, "whois "+r.domains[0]) {
		t.Fatalf("readyz after a miss that asked nobody = %d: %s, want it to still name the failed WHOIS query", resp.StatusCode, body)
	}
}

// TestGatherFromManyGoroutines: misses for different domains gather at once
// and /readyz reads the per-source memory meanwhile (run with -race).
func TestGatherFromManyGoroutines(t *testing.T) {
	r := newRig(t, 7)
	ctx := context.Background()
	if _, err := r.gather.Gather(ctx, r.domains[0]); err != nil { // first load
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < 120; i += 4 {
				if _, err := r.gather.Gather(ctx, r.domains[i]); err != nil {
					t.Errorf("Gather %s: %v", r.domains[i], err)
				}
				if err := r.gather.Failing(); err != nil {
					t.Errorf("Failing = %v with every source healthy", err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestProbeWithoutCRL: a gatherer with no CRL snapshot has no lagging CA to
// report, so the evidence probe is ready until a remote source fails and then
// names that source.
func TestProbeWithoutCRL(t *testing.T) {
	r := newRig(t, 7)
	r.gather.CRL = nil
	ts := r.api(t)
	if resp, body := fetch(t, ts, "/readyz"); resp.StatusCode != http.StatusOK || strings.Contains(body, "degraded") {
		t.Fatalf("readyz before any ask = %d: %s", resp.StatusCode, body)
	}
	_ = r.whoisSrv.Close()
	if resp, body := fetch(t, ts, "/v1/domain/"+r.domains[0]+"/staleness"); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("%s with the registry down = %d: %s, want 502", r.domains[0], resp.StatusCode, body)
	}
	if err := r.gather.Failing(); err == nil || !strings.HasPrefix(err.Error(), "whois "+r.domains[0]) {
		t.Fatalf("Failing after the failed ask = %v, want the WHOIS query", err)
	}
	if resp, body := fetch(t, ts, "/readyz"); resp.StatusCode != http.StatusOK || !strings.Contains(body, "degraded evidence") {
		t.Fatalf("readyz after the failed ask = %d: %s", resp.StatusCode, body)
	}
}
