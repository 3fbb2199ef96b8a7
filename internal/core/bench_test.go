package core

import (
	"fmt"
	"testing"

	"stalecert/internal/crl"
	"stalecert/internal/dnssim"
	"stalecert/internal/simtime"
	"stalecert/internal/whois"
	"stalecert/internal/x509sim"
)

// BenchmarkDomainStaleness is one staleness miss's detection step
// (core.domain_staleness_ns) on a domain of ten certificates, half of them
// provider-managed, with a re-registration, a departure and revs revocation
// entries, one in ten naming a certificate of the domain. The difference
// between the two sizes over 90 is core.domain_staleness_ns_per_rev.
func BenchmarkDomainStaleness(b *testing.B) {
	for _, revs := range []int{10, 100} {
		idx, ev := stalenessFixture(b, revs)
		b.Run(fmt.Sprintf("revs=%d", revs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(DomainStaleness(idx, stalenessDomain, ev)) == 0 {
					b.Fatal("no verdicts")
				}
			}
		})
	}
}

const stalenessDomain = "tencerts.com"

// stalenessFixture is BenchmarkDomainStaleness's index and evidence.
func stalenessFixture(tb testing.TB, revs int) (*Corpus, DomainEvidence) {
	tb.Helper()
	const domain, now = stalenessDomain, simtime.Day(3650)
	certs := make([]*x509sim.Certificate, 10)
	for i := range certs {
		names := []string{domain, "www." + domain}
		if i%2 == 0 {
			names = append(names, fmt.Sprintf("sni%d.managed.example", i))
		}
		c, err := x509sim.New(x509sim.SerialNumber(i+1), 1, x509sim.KeyID(i+1), names, now-100, now+200)
		if err != nil {
			tb.Fatal(err)
		}
		certs[i] = c
	}
	ev := DomainEvidence{
		ReRegistrations:  []whois.ReRegistration{{Domain: domain, NewCreation: now - 50}},
		Departures:       []dnssim.Departure{{Domain: domain, LastSeen: now - 1, FirstGone: now}},
		RevocationCutoff: simtime.NoDay,
		IsManaged:        func(c *x509sim.Certificate) bool { return len(c.Names) > 2 },
	}
	for i := 0; i < revs; i++ {
		e := crl.Entry{Issuer: 2, Serial: x509sim.SerialNumber(i + 1), RevokedAt: now - 10, Reason: crl.KeyCompromise}
		if i%10 == 0 {
			e.Issuer, e.Serial = 1, x509sim.SerialNumber(i/10%len(certs)+1)
		}
		ev.Revocations = append(ev.Revocations, e)
	}
	return NewCorpus(certs, CorpusOptions{}), ev
}

// TestDomainStalenessAllocCeilings caps BenchmarkDomainStaleness one above
// what each size costs today (9 and 10), with or without -race.
func TestDomainStalenessAllocCeilings(t *testing.T) {
	for revs, ceiling := range map[int]float64{10: 10, 100: 11} {
		idx, ev := stalenessFixture(t, revs)
		if got := testing.AllocsPerRun(500, func() { DomainStaleness(idx, stalenessDomain, ev) }); got > ceiling {
			t.Errorf("revs=%d: DomainStaleness allocates %.0f times, ceiling %.0f", revs, got, ceiling)
		}
	}
}
