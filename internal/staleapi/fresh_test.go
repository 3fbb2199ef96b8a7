package staleapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stalecert/internal/certstore"
	"stalecert/internal/core"
	"stalecert/internal/dnssim"
	"stalecert/internal/evidence"
	"stalecert/internal/monitor"
	"stalecert/internal/obs"
	"stalecert/internal/resil"
	"stalecert/internal/simtime"
	"stalecert/internal/whois"
	"stalecert/internal/x509sim"
)

// registry is a whoisd source whose records a test can change while it
// serves, counting the lookups it answers.
type registry struct {
	mu      sync.Mutex
	records map[string]whois.Record
	asked   atomic.Int64
}

func (r *registry) WhoisLookup(domain string) (whois.Record, bool) {
	r.asked.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.records[domain]
	return rec, ok
}

func (r *registry) register(domain string, created simtime.Day) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.records[domain] = whois.Record{Domain: domain, Registrar: "r", Created: created, Expires: created + 3650, Status: "ok"}
}

// dnsAsked is how many questions the in-process DNS servers have answered.
func dnsAsked() uint64 {
	var n uint64
	for _, rcode := range []string{"NOERROR", "NXDOMAIN"} {
		n += obs.Default().Counter("dns_queries_total", "rcode", rcode).Value()
	}
	return n
}

// TestVerdictExpiresWithItsOldestAnswer drives an evidence.Gatherer against
// loopback whoisd and dnsscand, and the verdict cache, from one fake clock,
// with MaxAge = TTL = 5 s and room for one verdict, so that a verdict can be
// rebuilt from answers the gatherer already holds:
//
//	(a) a second miss within MaxAge asks neither source;
//	(b) a verdict built at t0+3s from answers fetched at t0 expires at t0+5s;
//	(c) a re-registration made at t shows in every non-degraded verdict
//	    served after t+TTL;
//	(d) a failed ask is not kept, and a source failing past MaxAge degrades
//	    as it did before answers were reused: the last-good verdict marked
//	    degraded, aged from its oldest answer, or a 502 where none is kept.
func TestVerdictExpiresWithItsOldestAnswer(t *testing.T) {
	const ttl = 5 * time.Second
	day := simtime.MustParse("2023-01-01")
	store, err := certstore.Open(certstore.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	var certs []*x509sim.Certificate
	for i, names := range [][]string{
		{"fresh.com", "sni1." + monitor.MarkerSuffix}, // asks WHOIS and DNS
		{"other.com"},
		{"never.com"},
	} {
		c, err := x509sim.New(x509sim.SerialNumber(i+1), 1, x509sim.KeyID(i+1), names, day-100, day+200)
		if err != nil {
			t.Fatal(err)
		}
		certs = append(certs, c)
	}
	if _, err := store.Append(certs); err != nil {
		t.Fatal(err)
	}

	reg := &registry{records: map[string]whois.Record{}}
	for _, d := range []string{"fresh.com", "other.com", "never.com"} {
		reg.register(d, day-1000) // before every certificate: no registrant change
	}
	whoisSrv := whois.NewServer(reg)
	whoisAddr, err := whoisSrv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = whoisSrv.Close() })
	zone := dnssim.NewZone("com")
	if err := zone.Add(dnssim.Record{Name: "fresh.com", Type: dnssim.TypeNS, TTL: 60, Data: "amy." + monitor.NSSuffix}); err != nil {
		t.Fatal(err)
	}
	dnsStore := dnssim.NewStore()
	dnsStore.AddZone(zone)
	dnsSrv := dnssim.NewServer(dnsStore)
	dnsAddr, err := dnsSrv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dnsSrv.Close() })

	clock := resil.NewFakeClock(time.Unix(1_700_000_000, 0))
	gather := &evidence.Gatherer{
		Index:    store,
		Whois:    &whois.Client{Addr: whoisAddr.String()},
		Resolver: &dnssim.Resolver{ServerAddr: dnsAddr.String(), Timeout: time.Second},
		Now:      day,
		MaxAge:   ttl,
		Clock:    clock,
	}
	srv := NewServer(Config{Store: store, Evidence: gather.Gather, Now: func() simtime.Day { return day },
		CacheEntries: 1, CacheTTL: ttl, Health: obs.NewHealth()})
	srv.cache.SetClock(clock.Now)
	h := srv.Handler()
	serve := func(domain string) (*httptest.ResponseRecorder, StalenessResponse) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/domain/"+domain+"/staleness", nil))
		var resp StalenessResponse
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
		}
		return rec, resp
	}
	reRegistered := func(resp StalenessResponse) bool {
		for _, s := range resp.Stale {
			if s.Method == core.MethodRegistrantChange.String() {
				return true
			}
		}
		return false
	}
	t0 := clock.Now()
	at := func() time.Duration { return clock.Now().Sub(t0) }

	serve("fresh.com") // t0: both sources asked
	serve("other.com") // evicts fresh.com's verdict
	clock.Advance(time.Second)
	reg.register("fresh.com", day-50) // t = t0+1s: re-registered inside the certificate's validity
	clock.Advance(2 * time.Second)

	// (a)
	whoisBefore, dnsBefore := reg.asked.Load(), dnsAsked()
	if _, resp := serve("fresh.com"); resp.Cached || reRegistered(resp) {
		t.Fatalf("t0+3s: %+v, want a miss built from the answers fetched at t0", resp)
	}
	if n, m := reg.asked.Load()-whoisBefore, dnsAsked()-dnsBefore; n != 0 || m != 0 {
		t.Fatalf("t0+3s: a miss within MaxAge asked whoisd %d and dnsscand %d times, want none", n, m)
	}

	// (b)
	clock.Advance(2*time.Second - time.Nanosecond)
	if _, resp := serve("fresh.com"); !resp.Cached {
		t.Errorf("t0+5s-1ns: %+v, want the verdict built at t0+3s, still fresh", resp)
	}
	clock.Advance(time.Nanosecond)
	if _, resp := serve("fresh.com"); resp.Cached {
		t.Errorf("t0+5s: a hit; the verdict built at t0+3s from answers fetched at t0 must have expired")
	}

	// (c): alternating with other.com rebuilds fresh.com's verdict from kept
	// answers as often as from new ones.
	for clock.Advance(time.Second + time.Nanosecond); at() < 30*time.Second; clock.Advance(700 * time.Millisecond) {
		if rec, resp := serve("fresh.com"); rec.Code != http.StatusOK || resp.Degraded || !reRegistered(resp) {
			t.Fatalf("t0+%v, past t+TTL: status %d, %+v, want the re-registration", at(), rec.Code, resp)
		}
		if at()%(1400*time.Millisecond) < 700*time.Millisecond {
			serve("other.com")
		}
	}

	// (d) Answers fetched at t1 make a verdict at t1+3s; whoisd goes down.
	clock.Advance(ttl)
	t1 := clock.Now()
	serve("fresh.com")
	serve("other.com")
	clock.Advance(3 * time.Second)
	serve("fresh.com")
	if err := whoisSrv.Close(); err != nil {
		t.Fatal(err)
	}
	clock.Advance(9 * time.Second)
	rec, resp := serve("fresh.com")
	if !resp.Degraded || resp.EvidenceAge != "12s" || rec.Header().Get(obs.StaleEvidenceHeader) != "staleness:fresh.com age=12s" {
		t.Errorf("t1+12s, whoisd down: %+v, %s %q; want degraded, 12s old: its WHOIS answer is from t1, not t1+3s",
			resp, obs.StaleEvidenceHeader, rec.Header().Get(obs.StaleEvidenceHeader))
	}
	if rec, _ := serve("never.com"); rec.Code != http.StatusBadGateway {
		t.Errorf("never.com, whoisd down, nothing kept: status %d, want 502", rec.Code)
	}
	if gather.Failing() == nil {
		t.Error("Failing() = nil with whoisd down")
	}
	if !clock.Now().After(t1.Add(ttl)) {
		t.Fatal("the failure must come past MaxAge")
	}
	whoisSrv = whois.NewServer(reg)
	if _, err := whoisSrv.Start(whoisAddr.String()); err != nil {
		t.Fatal(err)
	}
	whoisBefore = reg.asked.Load()
	if rec, resp := serve("never.com"); rec.Code != http.StatusOK || resp.Degraded || reg.asked.Load() == whoisBefore {
		t.Errorf("never.com, whoisd back at the same time: status %d, %+v, asked %d times; the failed ask must not be kept",
			rec.Code, resp, reg.asked.Load()-whoisBefore)
	}
	if err := gather.Failing(); err != nil {
		t.Errorf("Failing() = %v after whoisd answered", err)
	}
}
