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
	const domain, now = "tencerts.com", simtime.Day(3650)
	certs := make([]*x509sim.Certificate, 10)
	for i := range certs {
		names := []string{domain, "www." + domain}
		if i%2 == 0 {
			names = append(names, fmt.Sprintf("sni%d.managed.example", i))
		}
		c, err := x509sim.New(x509sim.SerialNumber(i+1), 1, x509sim.KeyID(i+1), names, now-100, now+200)
		if err != nil {
			b.Fatal(err)
		}
		certs[i] = c
	}
	idx := NewCorpus(certs, CorpusOptions{})
	for _, revs := range []int{10, 100} {
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
		b.Run(fmt.Sprintf("revs=%d", revs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(DomainStaleness(idx, domain, ev)) == 0 {
					b.Fatal("no verdicts")
				}
			}
		})
	}
}
