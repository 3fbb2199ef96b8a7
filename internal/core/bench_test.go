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

// batchFixture is a corpus of 2 000 certificates over 400 e2LDs, every other
// one provider-managed, with a re-registration per domain, a departure for
// every other domain and a revocation for one certificate in four, some of
// each event outside the certificates' validity.
func batchFixture(tb testing.TB) (*Corpus, []crl.Entry, []whois.ReRegistration, []dnssim.Departure) {
	tb.Helper()
	const now = simtime.Day(3650)
	var certs []*x509sim.Certificate
	var revs []crl.Entry
	var rereg []whois.ReRegistration
	var deps []dnssim.Departure
	for d := 0; d < 400; d++ {
		domain := fmt.Sprintf("batch%03d.com", d)
		for j := 0; j < 5; j++ {
			n := len(certs) + 1
			names := []string{domain, "www." + domain}
			if n%2 == 0 {
				names = append(names, fmt.Sprintf("sni%d.managed.example", n))
			}
			nb := now - simtime.Day(n%300)
			c, err := x509sim.New(x509sim.SerialNumber(n), 1, x509sim.KeyID(n), names, nb, nb+200)
			if err != nil {
				tb.Fatal(err)
			}
			certs = append(certs, c)
			if n%4 == 0 {
				revs = append(revs, crl.Entry{Issuer: 1, Serial: c.Serial, RevokedAt: nb + simtime.Day(n%250), Reason: crl.Reason(n % 6)})
			}
		}
		rereg = append(rereg, whois.ReRegistration{Domain: domain, NewCreation: now - simtime.Day(d%365)})
		if d%2 == 0 {
			deps = append(deps, dnssim.Departure{Domain: domain, LastSeen: now - 1, FirstGone: now})
		}
	}
	return NewCorpus(certs, CorpusOptions{}), revs, rereg, deps
}

func isBatchManaged(c *x509sim.Certificate) bool { return len(c.Names) > 2 }

// batchDetect is one pass of the three batch detectors.
func batchDetect(idx *Corpus, revs []crl.Entry, rereg []whois.ReRegistration, deps []dnssim.Departure) int {
	revoked, _ := DetectRevoked(idx, revs, simtime.NoDay)
	return len(revoked) + len(DetectRegistrantChange(idx, rereg)) + len(DetectManagedTLSDeparture(idx, deps, isBatchManaged))
}

// BenchmarkBatchDetect is the three batch detectors over a corpus, reported
// per certificate as ns/cert (core.batch_detect_us_per_cert).
func BenchmarkBatchDetect(b *testing.B) {
	idx, revs, rereg, deps := batchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batchDetect(idx, revs, rereg, deps) == 0 {
			b.Fatal("no verdicts")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*idx.Len()), "ns/cert")
}

// TestBatchDetectAllocCeiling caps one BenchmarkBatchDetect pass one above
// what it costs today (631: per e2LD an index copy in each event detector,
// and the verdict slices).
func TestBatchDetectAllocCeiling(t *testing.T) {
	idx, revs, rereg, deps := batchFixture(t)
	if got := testing.AllocsPerRun(20, func() { batchDetect(idx, revs, rereg, deps) }); got > 632 {
		t.Errorf("one pass allocates %.0f times, ceiling 632", got)
	}
}
