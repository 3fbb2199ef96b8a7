package worldsim

import (
	"testing"

	"stalecert/internal/ca"
	"stalecert/internal/crl"
	"stalecert/internal/monitor"
	"stalecert/internal/simtime"
)

// shortScenario runs ~2.5 simulated years at small scale, ending after the
// 398-day era begins so both lifetime eras are exercised.
func shortScenario() Scenario {
	s := Quick()
	s.Start = simtime.MustParse("2019-01-01")
	s.End = simtime.MustParse("2021-06-30")
	s.BaseDailyRegistrations = 2
	s.WHOISWindow = simtime.Span{Start: simtime.MustParse("2019-06-01"), End: simtime.MustParse("2021-06-30")}
	s.ADNSWindow = simtime.Span{Start: simtime.MustParse("2021-01-01"), End: simtime.MustParse("2021-03-31")}
	s.CRLWindow = simtime.Span{Start: simtime.MustParse("2021-04-01"), End: simtime.MustParse("2021-06-30")}
	s.GoDaddyBreach = false
	return s
}

func TestWorldRunProducesAllDatasets(t *testing.T) {
	w := NewWorld(shortScenario())
	w.Run()

	if w.DomainCount() < 500 {
		t.Fatalf("only %d domains simulated", w.DomainCount())
	}
	certs, stats := w.Logs.Dedup()
	if len(certs) < 500 {
		t.Fatalf("only %d certificates in CT", len(certs))
	}
	if stats.PrecertMerged == 0 {
		t.Fatal("no precert/final pairs merged — CT submission path broken")
	}
	if w.Whois.Domains() == 0 {
		t.Fatal("WHOIS archive empty")
	}
	if len(w.ADNS.Days()) < 80 {
		t.Fatalf("aDNS scans = %d days", len(w.ADNS.Days()))
	}
	if len(w.RevocationEntries()) == 0 {
		t.Fatal("no revocations collected")
	}
	if len(w.Ledger.Rows()) == 0 {
		t.Fatal("CRL coverage ledger empty")
	}
}

func TestWorldDeterminism(t *testing.T) {
	s := shortScenario()
	s.End = s.Start + 400
	run := func() (int, int, int) {
		w := NewWorld(s)
		w.Run()
		certs, _ := w.Logs.Dedup()
		return w.DomainCount(), len(certs), len(w.RevocationEntries())
	}
	d1, c1, r1 := run()
	d2, c2, r2 := run()
	if d1 != d2 || c1 != c2 || r1 != r2 {
		t.Fatalf("non-deterministic: (%d,%d,%d) vs (%d,%d,%d)", d1, c1, r1, d2, c2, r2)
	}
	if d1 < 300 {
		t.Fatalf("domains = %d", d1)
	}
}

func TestWorldCertificatesRespectEraLimits(t *testing.T) {
	w := NewWorld(shortScenario())
	w.Run()
	certs, _ := w.Logs.Dedup()
	for _, c := range certs {
		limit := ca.MaxLifetime(c.NotBefore)
		if c.LifetimeDays() > limit {
			t.Fatalf("cert issued %s has lifetime %d > era max %d", c.NotBefore, c.LifetimeDays(), limit)
		}
	}
}

func TestWorldCDNDeparturesDetected(t *testing.T) {
	w := NewWorld(shortScenario())
	w.Run()
	deps := w.ADNS.Departures()
	if len(deps) == 0 {
		t.Fatal("no managed-TLS departures in aDNS window")
	}
	for _, d := range deps {
		if d.FirstGone <= d.LastSeen {
			t.Fatalf("departure ordering wrong: %+v", d)
		}
	}
	// Departed domains must have had Cloudflare-managed certs at some point.
	managed := 0
	for _, c := range w.CDN.Certificates() {
		if monitor.HasProviderMarker(c, monitor.MarkerSuffix) {
			managed++
		}
	}
	if managed == 0 {
		t.Fatal("CDN issued no managed certificates")
	}
}

func TestWorldReRegistrationsVisibleInWHOIS(t *testing.T) {
	s := shortScenario()
	s.ReRegistrationProb = 0.9
	s.DomainRenewProb = 0.3
	w := NewWorld(s)
	w.Run()
	rr := w.Whois.ReRegistrations()
	if len(rr) == 0 {
		t.Fatal("no re-registrations observed in WHOIS archive")
	}
	for _, e := range rr {
		if e.NewCreation <= e.PrevCreation {
			t.Fatalf("re-registration dates inverted: %+v", e)
		}
	}
}

func TestWorldKeyCompromiseRevocations(t *testing.T) {
	s := shortScenario()
	s.CompromiseProbLong = 0.05
	s.CompromiseProbShort = 0.01
	w := NewWorld(s)
	w.Run()
	kc := 0
	other := 0
	for _, e := range w.RevocationEntries() {
		if e.Reason == crl.KeyCompromise {
			kc++
		} else {
			other++
		}
	}
	if kc == 0 {
		t.Fatal("no key-compromise revocations")
	}
	if other == 0 {
		t.Fatal("no other-reason revocations")
	}
	if kc >= other {
		t.Fatalf("key compromise (%d) should be rarer than other reasons (%d)", kc, other)
	}
}

func TestGoDaddyBreachSpike(t *testing.T) {
	s := Quick()
	s.Start = simtime.MustParse("2021-01-01")
	s.End = simtime.MustParse("2022-03-01")
	s.BaseDailyRegistrations = 3
	s.GoDaddyBreach = true
	s.CRLWindow = simtime.Span{Start: simtime.MustParse("2022-01-01"), End: simtime.MustParse("2022-03-01")}
	s.WHOISWindow = simtime.Span{}
	s.ADNSWindow = simtime.Span{}
	w := NewWorld(s)
	w.Run()

	inWindow, outside := 0, 0
	for _, e := range w.RevocationEntries() {
		if e.Reason != crl.KeyCompromise {
			continue
		}
		if e.RevokedAt >= GoDaddyBreachStart && e.RevokedAt <= GoDaddyBreachEnd {
			inWindow++
		} else {
			outside++
		}
	}
	if inWindow == 0 {
		t.Fatal("breach produced no key-compromise revocations")
	}
	if inWindow <= outside {
		t.Fatalf("breach spike (%d) not dominant over baseline (%d)", inWindow, outside)
	}
}

func TestValidatorBlocksNonOwners(t *testing.T) {
	s := shortScenario()
	s.End = s.Start + 200
	w := NewWorld(s)
	w.Run()
	// Pick any active domain and try issuing with a bogus account.
	var name string
	for _, n := range w.Registry.ActiveDomains() {
		name = n
		break
	}
	if name == "" {
		t.Skip("no active domains")
	}
	le := w.CAs[ca.IssuerLetsEncryptX3]
	if _, err := le.Issue(ca.Request{Account: "acct:attacker", Names: []string{name}}, w.Today()); err == nil {
		t.Fatal("CA issued to non-controlling account")
	}
}

func TestScanLogDepartureMerge(t *testing.T) {
	l := NewScanLog()
	l.days = []simtime.Day{10, 11, 12}
	l.matched = [][]string{{"a.com", "b.com", "c.com"}, {"b.com"}, {"b.com", "d.com"}}
	deps := l.Departures()
	if len(deps) != 2 {
		t.Fatalf("departures = %+v", deps)
	}
	if deps[0].Domain != "a.com" || deps[1].Domain != "c.com" || deps[0].FirstGone != 11 {
		t.Fatalf("departures = %+v", deps)
	}
}
