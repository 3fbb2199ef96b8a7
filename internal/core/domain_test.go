package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"stalecert/internal/crl"
	"stalecert/internal/dnssim"
	"stalecert/internal/simtime"
	"stalecert/internal/whois"
	"stalecert/internal/x509sim"
)

func domCert(t *testing.T, serial uint64, names []string, nb, na simtime.Day) *x509sim.Certificate {
	t.Helper()
	c, err := x509sim.New(x509sim.SerialNumber(serial), x509sim.IssuerID(serial%3+1), x509sim.KeyID(serial), names, nb, na)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func domKey(s StaleCert) string {
	return fmt.Sprintf("%s/%d/%d/%d/%s", s.Cert.Fingerprint(), s.Method, s.EventDay, s.Reason, s.Domain)
}

// TestDomainStalenessMatchesBatchDetectors is the shared-index invariant:
// for every domain, the per-domain query logic must return exactly the
// batch pipelines' verdicts restricted to that domain.
func TestDomainStalenessMatchesBatchDetectors(t *testing.T) {
	managed := func(c *x509sim.Certificate) bool {
		for _, n := range c.Names {
			if len(n) > 3 && n[:3] == "sni" {
				return true
			}
		}
		return false
	}
	certs := []*x509sim.Certificate{
		domCert(t, 1, []string{"alpha.com", "www.alpha.com"}, 100, 900),
		domCert(t, 2, []string{"alpha.com"}, 200, 400), // expires before some events
		domCert(t, 3, []string{"beta.org"}, 100, 900),
		domCert(t, 4, []string{"gamma.net", "sni7.cloudflaressl.com"}, 100, 900),
		domCert(t, 5, []string{"delta.com"}, 100, 900),
	}
	corpus := NewCorpus(certs, CorpusOptions{})

	revs := []crl.Entry{
		{Issuer: certs[0].Issuer, Serial: 1, RevokedAt: 500, Reason: crl.KeyCompromise},
		{Issuer: certs[1].Issuer, Serial: 2, RevokedAt: 500, Reason: crl.Unspecified}, // after expiry: filtered
		{Issuer: certs[2].Issuer, Serial: 3, RevokedAt: 50, Reason: crl.Unspecified},  // before notBefore: filtered
		{Issuer: certs[4].Issuer, Serial: 5, RevokedAt: 120, Reason: crl.Superseded},  // before cutoff when set
	}
	rereg := []whois.ReRegistration{
		{Domain: "alpha.com", NewCreation: 300, PrevCreation: 10},
		{Domain: "beta.org", NewCreation: 950, PrevCreation: 10}, // outside validity
	}
	deps := []dnssim.Departure{
		{Domain: "gamma.net", LastSeen: 599, FirstGone: 600},
		{Domain: "delta.com", LastSeen: 599, FirstGone: 600}, // not managed: filtered
	}

	for _, cutoff := range []simtime.Day{simtime.NoDay, 200} {
		var batch []StaleCert
		revoked, _ := DetectRevoked(corpus, revs, cutoff)
		batch = append(batch, revoked...)
		batch = append(batch, DetectRegistrantChange(corpus, rereg)...)
		batch = append(batch, DetectManagedTLSDeparture(corpus, deps, managed)...)

		ev := DomainEvidence{
			Revocations:      revs,
			ReRegistrations:  rereg,
			Departures:       deps,
			RevocationCutoff: cutoff,
			IsManaged:        managed,
		}
		for _, domain := range []string{"alpha.com", "beta.org", "gamma.net", "delta.com", "cloudflaressl.com", "unknown.io"} {
			inDomain := map[x509sim.Fingerprint]bool{}
			for _, c := range corpus.ByE2LD(domain) {
				inDomain[c.Fingerprint()] = true
			}
			var want []string
			for _, s := range batch {
				if s.Method == MethodRevocation && inDomain[s.Cert.Fingerprint()] ||
					s.Method != MethodRevocation && s.Domain == domain {
					want = append(want, domKey(s))
				}
			}
			var got []string
			for _, s := range DomainStaleness(corpus, domain, ev) {
				got = append(got, domKey(s))
			}
			sort.Strings(want)
			sort.Strings(got)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("cutoff %v domain %s: got %v want %v", cutoff, domain, got, want)
			}
		}
	}
}

func TestDomainStalenessNilIsManagedDisablesDepartures(t *testing.T) {
	certs := []*x509sim.Certificate{domCert(t, 4, []string{"gamma.net", "sni7.cloudflaressl.com"}, 100, 900)}
	corpus := NewCorpus(certs, CorpusOptions{})
	out := DomainStaleness(corpus, "gamma.net", DomainEvidence{
		Departures:       []dnssim.Departure{{Domain: "gamma.net", FirstGone: 600}},
		RevocationCutoff: simtime.NoDay,
	})
	if len(out) != 0 {
		t.Fatalf("departures detected without IsManaged: %v", out)
	}
}

// TestByE2LDDefensiveCopy guards the index against caller mutation — the
// returned slice must not share backing storage with the inverted index.
func TestByE2LDDefensiveCopy(t *testing.T) {
	certs := []*x509sim.Certificate{
		domCert(t, 1, []string{"copy.com"}, 100, 900),
		domCert(t, 2, []string{"copy.com"}, 100, 900),
	}
	corpus := NewCorpus(certs, CorpusOptions{})
	got := corpus.ByE2LD("copy.com")
	if len(got) != 2 {
		t.Fatalf("ByE2LD = %d certs", len(got))
	}
	got[0], got[1] = nil, nil
	again := corpus.ByE2LD("copy.com")
	if len(again) != 2 || again[0] == nil || again[1] == nil {
		t.Fatal("caller mutation corrupted the shared e2LD index")
	}
	if corpus.ByE2LD("missing.com") != nil {
		t.Fatal("miss should return nil")
	}
}

// TestDomainStalenessOrderIgnoresEvidenceOrder: the canonical order is total
// over what evidence contributes, so detections that tie on event day, issuer
// and serial — one certificate hit by several methods, or by two CRL entries,
// on the same day — come out identically however the evidence was ordered.
func TestDomainStalenessOrderIgnoresEvidenceOrder(t *testing.T) {
	managed := func(*x509sim.Certificate) bool { return true }
	cert := domCert(t, 1, []string{"tie.com", "www.tie.com"}, 100, 900)
	other := domCert(t, 2, []string{"tie.com"}, 100, 900)
	corpus := NewCorpus([]*x509sim.Certificate{cert, other}, CorpusOptions{})
	ev := DomainEvidence{
		Revocations: []crl.Entry{
			{Issuer: cert.Issuer, Serial: 1, RevokedAt: 500, Reason: crl.Superseded},
			{Issuer: cert.Issuer, Serial: 1, RevokedAt: 500, Reason: crl.KeyCompromise},
			{Issuer: other.Issuer, Serial: 2, RevokedAt: 500, Reason: crl.Unspecified},
		},
		ReRegistrations:  []whois.ReRegistration{{Domain: "tie.com", NewCreation: 500}},
		Departures:       []dnssim.Departure{{Domain: "tie.com", LastSeen: 499, FirstGone: 500}},
		RevocationCutoff: simtime.NoDay,
		IsManaged:        managed,
	}
	render := func(ev DomainEvidence) string {
		var keys []string
		for _, s := range DomainStaleness(corpus, "tie.com", ev) {
			keys = append(keys, domKey(s))
		}
		return fmt.Sprint(keys)
	}
	want := render(ev)
	if n := len(DomainStaleness(corpus, "tie.com", ev)); n != 7 {
		t.Fatalf("got %d detections, want 7 all on day 500", n)
	}
	perms := [][]int{{0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, p := range perms {
		shuffled := ev
		shuffled.Revocations = []crl.Entry{ev.Revocations[p[0]], ev.Revocations[p[1]], ev.Revocations[p[2]]}
		if got := render(shuffled); got != want {
			t.Fatalf("revocations in order %v:\n got %s\nwant %s", p, got, want)
		}
	}
}

// TestEvidenceNeededDropsOnlyWhatCannotMatter: over seeded random corpora and
// random evidence, the verdict with every event equals the verdict with the
// re-registrations and departures dropped wherever EvidenceNeeded says the
// source cannot contribute. It fails if a detector in DomainStaleness is
// widened without widening the predicate beside it.
func TestEvidenceNeededDropsOnlyWhatCannotMatter(t *testing.T) {
	const day = simtime.Day(1000)
	managed := func(c *x509sim.Certificate) bool {
		for _, n := range c.Names {
			if len(n) > 3 && n[:3] == "sni" {
				return true
			}
		}
		return false
	}
	byMethod := map[Method]int{}
	droppedRereg, droppedDeps, tight := 0, 0, 0
	for seed := int64(1); seed <= 5; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		var certs []*x509sim.Certificate
		var domains []string
		ev := DomainEvidence{RevocationCutoff: simtime.NoDay, IsManaged: managed}
		serial := uint64(0)
		for d := 0; d < 300; d++ {
			domain := fmt.Sprintf("rand%03d.com", d)
			domains = append(domains, domain)
			for n := rnd.Intn(4); n > 0; n-- { // a quarter of the domains hold nothing
				serial++
				names := []string{domain}
				if rnd.Intn(3) == 0 {
					names = append(names, fmt.Sprintf("sni%d.cloudflaressl.com", serial))
				}
				// Windows that end before day, straddle it, or start after it.
				nb := day - 200 + simtime.Day(rnd.Intn(300))
				c := domCert(t, serial, names, nb, nb+simtime.Day(1+rnd.Intn(250)))
				certs = append(certs, c)
				if rnd.Intn(4) == 0 {
					ev.Revocations = append(ev.Revocations, crl.Entry{Issuer: c.Issuer, Serial: c.Serial,
						RevokedAt: nb - 10 + simtime.Day(rnd.Intn(280)), Reason: crl.Reason(rnd.Intn(6))})
				}
			}
			if rnd.Intn(2) == 0 {
				ev.ReRegistrations = append(ev.ReRegistrations, whois.ReRegistration{Domain: domain,
					NewCreation: day - 250 + simtime.Day(rnd.Intn(400))})
			}
			if rnd.Intn(2) == 0 {
				ev.Departures = append(ev.Departures, dnssim.Departure{Domain: domain, LastSeen: day - 1, FirstGone: day})
			}
		}
		corpus := NewCorpus(certs, CorpusOptions{})
		for _, domain := range domains {
			registrant, departure := EvidenceNeeded(corpus.ByE2LD(domain), managed, day)
			full := DomainStaleness(corpus, domain, ev)
			needed := ev
			if !registrant {
				needed.ReRegistrations = nil
				droppedRereg++
			}
			if !departure {
				needed.Departures = nil
				droppedDeps++
			}
			if got := DomainStaleness(corpus, domain, needed); !reflect.DeepEqual(got, full) {
				t.Fatalf("seed %d %s (registrant %v, departure %v): verdict without the sources not needed differs:\n got %v\nwant %v",
					seed, domain, registrant, departure, got, full)
			}
			for _, s := range full {
				byMethod[s.Method]++
			}
			// The departure half is exact, not merely safe: where it says yes,
			// a departure on that day is a verdict.
			if departure {
				only := DomainEvidence{RevocationCutoff: simtime.NoDay, IsManaged: managed,
					Departures: []dnssim.Departure{{Domain: domain, LastSeen: day - 1, FirstGone: day}}}
				if len(DomainStaleness(corpus, domain, only)) == 0 {
					t.Fatalf("seed %d %s: departure evidence called needed but it yields no verdict", seed, domain)
				}
				tight++
			}
		}
		if _, departure := EvidenceNeeded(certs, nil, day); departure {
			t.Fatal("departure evidence needed without an IsManaged predicate")
		}
	}
	for _, m := range []Method{MethodRevocation, MethodRegistrantChange, MethodManagedTLS} {
		if byMethod[m] == 0 {
			t.Errorf("no %v verdict in any corpus: the comparison does not cover it (%v)", m, byMethod)
		}
	}
	if droppedRereg == 0 || droppedDeps == 0 || tight == 0 {
		t.Errorf("dropped re-registrations for %d domains, departures for %d, needed departures for %d: each case must occur",
			droppedRereg, droppedDeps, tight)
	}
}

// TestStalenessBoundaries walks one certificate, valid [100, 900], through
// the boundary days of the paper's three rules and requires the batch
// detector, DomainStaleness and EvidenceNeeded to agree row by row: the same
// verdict from the first two, and never a verdict from a source EvidenceNeeded
// said not to ask (for departures it is exact: needed iff a verdict).
func TestStalenessBoundaries(t *testing.T) {
	managed := func(c *x509sim.Certificate) bool { return len(c.Names) > 1 }
	plain := domCert(t, 1, []string{"edge.com"}, 100, 900)
	boat := domCert(t, 2, []string{"edge.com", "sni1.cloudflaressl.com"}, 100, 900)
	for _, tc := range []struct {
		name   string
		cert   *x509sim.Certificate
		method Method
		day    simtime.Day
		cutoff simtime.Day
		stale  bool
	}{
		{"revoked the day before notBefore", plain, MethodRevocation, 99, simtime.NoDay, false},
		{"revoked on notBefore", plain, MethodRevocation, 100, simtime.NoDay, true},
		{"revoked one day in", plain, MethodRevocation, 101, simtime.NoDay, true},
		{"revoked one day before notAfter", plain, MethodRevocation, 899, simtime.NoDay, true},
		{"revoked on notAfter", plain, MethodRevocation, 900, simtime.NoDay, true},
		{"revoked the day after notAfter", plain, MethodRevocation, 901, simtime.NoDay, false},
		{"revoked the day before the cutoff", plain, MethodRevocation, 199, 200, false},
		{"revoked on the cutoff", plain, MethodRevocation, 200, 200, true},
		{"re-registered on notBefore", plain, MethodRegistrantChange, 100, simtime.NoDay, false},
		{"re-registered one day in", plain, MethodRegistrantChange, 101, simtime.NoDay, true},
		{"re-registered one day before notAfter", plain, MethodRegistrantChange, 899, simtime.NoDay, true},
		{"re-registered on notAfter", plain, MethodRegistrantChange, 900, simtime.NoDay, false},
		{"departed the day before notBefore", boat, MethodManagedTLS, 99, simtime.NoDay, false},
		{"departed on notBefore", boat, MethodManagedTLS, 100, simtime.NoDay, true},
		{"departed on notAfter", boat, MethodManagedTLS, 900, simtime.NoDay, true},
		{"expired on the departure day", boat, MethodManagedTLS, 901, simtime.NoDay, false},
		{"unmanaged on the departure day", plain, MethodManagedTLS, 500, simtime.NoDay, false},
	} {
		corpus := NewCorpus([]*x509sim.Certificate{tc.cert}, CorpusOptions{})
		ev := DomainEvidence{RevocationCutoff: tc.cutoff, IsManaged: managed}
		var batch []StaleCert
		switch tc.method {
		case MethodRevocation:
			ev.Revocations = []crl.Entry{{Issuer: tc.cert.Issuer, Serial: tc.cert.Serial, RevokedAt: tc.day}}
			batch, _ = DetectRevoked(corpus, ev.Revocations, tc.cutoff)
		case MethodRegistrantChange:
			ev.ReRegistrations = []whois.ReRegistration{{Domain: "edge.com", NewCreation: tc.day}}
			batch = DetectRegistrantChange(corpus, ev.ReRegistrations)
		case MethodManagedTLS:
			ev.Departures = []dnssim.Departure{{Domain: "edge.com", LastSeen: tc.day - 1, FirstGone: tc.day}}
			batch = DetectManagedTLSDeparture(corpus, ev.Departures, managed)
		}
		live := DomainStaleness(corpus, "edge.com", ev)
		if (len(batch) == 1) != tc.stale || !reflect.DeepEqual(live, batch) {
			t.Errorf("%s: batch %v, live %v, want stale=%v from both", tc.name, batch, live, tc.stale)
		}
		registrant, departure := EvidenceNeeded(corpus.ByE2LD("edge.com"), managed, tc.day)
		if tc.method == MethodRegistrantChange && tc.stale && !registrant {
			t.Errorf("%s: a verdict from a source EvidenceNeeded would not ask", tc.name)
		}
		if tc.method == MethodManagedTLS && departure != tc.stale {
			t.Errorf("%s: EvidenceNeeded says departure=%v, the detectors say stale=%v", tc.name, departure, tc.stale)
		}
	}
}
