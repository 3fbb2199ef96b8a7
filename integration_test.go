package stalecert_test

// Integration tests proving the wire pipeline end to end: the same world
// state collected over real sockets — CT over HTTP, CRLs over HTTP, WHOIS
// over TCP, DNS over UDP — must drive the detectors to the same results as
// the in-process fast path the simulator uses.

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"stalecert"
	"stalecert/internal/crl"
	"stalecert/internal/ctlog"
	"stalecert/internal/dnssim"
	"stalecert/internal/monitor"
	"stalecert/internal/simtime"
	"stalecert/internal/whois"
	"stalecert/internal/worldsim"
	"stalecert/internal/x509sim"
)

// wireScenario is small enough that scraping every CT entry over HTTP stays
// fast.
func wireScenario() worldsim.Scenario {
	s := worldsim.Quick()
	s.Start = simtime.MustParse("2020-01-01")
	s.End = simtime.MustParse("2021-06-30")
	s.BaseDailyRegistrations = 1.0
	s.WHOISWindow = simtime.Span{Start: s.Start, End: s.End}
	s.ADNSWindow = simtime.Span{Start: simtime.MustParse("2021-04-01"), End: simtime.MustParse("2021-06-30")}
	s.CRLWindow = simtime.Span{Start: simtime.MustParse("2021-01-01"), End: simtime.MustParse("2021-06-30")}
	s.GoDaddyBreach = false
	return s
}

func TestWireCTScrapeMatchesInProcessCorpus(t *testing.T) {
	w := stalecert.Simulate(wireScenario())
	ctx := context.Background()

	// Serve every member log over HTTP and scrape it back.
	var scraped []*x509sim.Certificate
	for _, l := range w.Logs.Logs() {
		srv := ctlog.NewServer(l)
		ts := httptest.NewServer(srv.Handler())
		client := ctlog.NewClient(ts.URL, ts.Client())
		entries, sth, err := client.Scrape(ctx, ctlog.ScrapeOptions{})
		ts.Close()
		if err != nil {
			t.Fatalf("scrape %s: %v", l.Name(), err)
		}
		if !l.VerifySTH(sth) {
			t.Fatalf("scraped STH fails verification for %s", l.Name())
		}
		for _, e := range entries {
			scraped = append(scraped, e.Cert)
		}
	}

	wireCorpus := stalecert.NewCorpus(scraped, stalecert.CorpusOptions{})
	inproc, _ := w.Logs.Dedup()
	inprocCorpus := stalecert.NewCorpus(inproc, stalecert.CorpusOptions{})
	if wireCorpus.Len() != inprocCorpus.Len() {
		t.Fatalf("wire corpus %d certs, in-process %d", wireCorpus.Len(), inprocCorpus.Len())
	}

	// The registrant-change detector must agree on both corpora.
	events := w.Whois.ReRegistrations()
	wireStale := stalecert.DetectRegistrantChange(wireCorpus, events)
	inprocStale := stalecert.DetectRegistrantChange(inprocCorpus, events)
	if len(wireStale) != len(inprocStale) {
		t.Fatalf("wire detected %d, in-process %d", len(wireStale), len(inprocStale))
	}
}

func TestWireCRLFetchMatchesWorldRevocations(t *testing.T) {
	w := stalecert.Simulate(wireScenario())

	srv := crl.NewServer(99)
	srv.SetNow(w.Today())
	var names []string
	for _, p := range w.Dir.All() {
		srv.Host(w.CAs[p.ID].Authority(), 0)
		names = append(names, p.Name)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fetcher := &crl.Fetcher{Base: ts.URL}
	lists, err := fetcher.FetchAll(context.Background(), names)
	if err != nil {
		t.Fatal(err)
	}
	var wireEntries []crl.Entry
	for _, l := range lists {
		wireEntries = append(wireEntries, l.Entries...)
	}

	// The world's collected revocation set must be a subset of what a full
	// wire fetch sees (the world may have missed CAs to scrape failures; we
	// hosted everything with failRate 0).
	wireKeys := make(map[x509sim.DedupKey]crl.Entry, len(wireEntries))
	for _, e := range wireEntries {
		wireKeys[e.Key()] = e
	}
	for _, e := range w.RevocationEntries() {
		we, ok := wireKeys[e.Key()]
		if !ok {
			t.Fatalf("revocation %+v missing from wire fetch", e)
		}
		if we.RevokedAt != e.RevokedAt || we.Reason != e.Reason {
			t.Fatalf("revocation drifted over the wire: %+v vs %+v", we, e)
		}
	}

	// And the revocation detector works on wire data.
	certs, _ := w.Logs.Dedup()
	corpus := stalecert.NewCorpus(certs, stalecert.CorpusOptions{})
	stale, stats := stalecert.DetectRevoked(corpus, wireEntries, simtime.NoDay)
	if stats.MatchedInCT == 0 || len(stale) == 0 {
		t.Fatal("wire revocations joined nothing")
	}
}

func TestWireWHOISMatchesRegistry(t *testing.T) {
	w := stalecert.Simulate(wireScenario())

	srv := whois.NewServer(&whois.RegistrySource{Registry: w.Registry})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	active := w.Registry.ActiveDomains()
	if len(active) == 0 {
		t.Fatal("no active domains")
	}
	if len(active) > 25 {
		active = active[:25]
	}
	for _, d := range active {
		rec, err := whois.Query(ctx, addr.String(), d)
		if err != nil {
			t.Fatalf("whois %s: %v", d, err)
		}
		reg, _, _ := w.Registry.Lookup(d)
		if rec.Created != reg.Created || rec.Domain != d {
			t.Fatalf("wire WHOIS for %s = %+v, registry says created=%v", d, rec, reg.Created)
		}
	}
}

func TestWireDNSScanAgreesWithScanLog(t *testing.T) {
	w := stalecert.Simulate(wireScenario())

	dnsSrv := dnssim.NewServer(w.DNS)
	addr, err := dnsSrv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dnsSrv.Close()

	// The last in-process scan day's provider-delegated set must be exactly
	// what the daemons' question, asked over UDP, finds for every domain
	// today: world state has not advanced since the final scan day.
	days := w.ADNS.Days()
	if len(days) == 0 {
		t.Fatal("no scan days")
	}
	lastMatched := map[string]bool{}
	for _, d := range w.ADNS.MatchedOn(len(days) - 1) {
		lastMatched[d] = true
	}
	resolver := &dnssim.Resolver{ServerAddr: addr.String(), Timeout: 2 * time.Second}
	delegated := 0
	for _, d := range w.AllDomains() {
		wire, err := monitor.ProviderDelegated(context.Background(), resolver, d)
		if err != nil {
			t.Fatalf("domain %s: %v", d, err)
		}
		if wire != lastMatched[d] {
			t.Fatalf("domain %s: wire says delegated=%v, scanlog says %v", d, wire, lastMatched[d])
		}
		if wire {
			delegated++
		}
	}
	t.Logf("%d of %d domains delegated", delegated, len(w.AllDomains()))
	if delegated == 0 || delegated == len(w.AllDomains()) {
		t.Fatalf("%d of %d domains delegated: the comparison needs both kinds", delegated, len(w.AllDomains()))
	}
}
