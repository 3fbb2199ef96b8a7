package core

import (
	"time"

	"stalecert/internal/crl"
	"stalecert/internal/dnssim"
	"stalecert/internal/psl"
	"stalecert/internal/simtime"
	"stalecert/internal/whois"
	"stalecert/internal/x509sim"
)

// Index is the read surface the detection pipelines need: point lookups by
// CRL join key and by e2LD, plus full enumeration. Both the in-memory batch
// Corpus and the persistent certstore.Store implement it, so the batch
// (experiments) and live (stalewatch, staleapid) paths share one index
// implementation — the tentpole invariant is that a detector gives the same
// verdict whichever backs it.
type Index interface {
	// ByKey resolves a CRL (issuer, serial) join key.
	ByKey(x509sim.DedupKey) (*x509sim.Certificate, bool)
	// ByE2LD returns every certificate naming an FQDN under the e2LD.
	// Implementations return a slice the caller may mutate.
	ByE2LD(domain string) []*x509sim.Certificate
	// Certs enumerates the indexed certificates.
	Certs() []*x509sim.Certificate
	// Len is the indexed certificate count.
	Len() int
	// PSL is the public suffix list names were bucketed with.
	PSL() *psl.List
}

// Compile-time check: the batch corpus satisfies the shared index surface.
var _ Index = (*Corpus)(nil)

// DomainEvidence is the event evidence for one e2LD's staleness query — the
// same three signal classes the batch detectors consume, restricted (or
// restrictable) to a single domain. A live query service fills it from
// point lookups (WHOIS query, DNS delegation check, CRL fetch); a batch
// harness passes the full event lists and lets DomainStaleness filter.
type DomainEvidence struct {
	// Revocations are CRL entries; joined against the domain's certificates
	// by (issuer, serial), so passing a full CRL set is fine.
	Revocations []crl.Entry
	// ReRegistrations are registrant-change events; only entries for the
	// queried domain apply.
	ReRegistrations []whois.ReRegistration
	// Departures are managed-TLS delegation losses; only entries for the
	// queried domain apply.
	Departures []dnssim.Departure
	// RevocationCutoff mirrors DetectRevoked's outlier filter; use
	// simtime.NoDay to disable.
	RevocationCutoff simtime.Day
	// IsManaged identifies provider-managed certificates for the departure
	// check; nil disables that method.
	IsManaged ManagedCertPred
	// ObservedAt is when the oldest WHOIS or DNS answer used was fetched, or zero.
	ObservedAt time.Time
}

// DomainStaleness runs the three detectors' per-domain logic for one e2LD
// against an index. It returns exactly the subset of the batch pipelines'
// output whose certificate names the domain: revocation staleness applies
// DetectRevoked's validity-window and cutoff filters (Domain stays empty, as
// in the batch path, because a revocation affects every name on the
// certificate); registrant-change and managed-departure events apply their
// batch validity checks. Results are in the detectors' canonical order.
func DomainStaleness(idx Index, domain string, ev DomainEvidence) []StaleCert {
	return CertsStaleness(idx, domain, idx.ByE2LD(domain), ev)
}

// CertsStaleness is DomainStaleness over certs, the list one idx.ByE2LD(domain)
// returned, for a caller that reports on the same list.
func CertsStaleness(idx Index, domain string, certs []*x509sim.Certificate, ev DomainEvidence) []StaleCert {
	if len(certs) == 0 {
		return nil
	}
	var out []StaleCert

	if len(ev.Revocations) > 0 {
		inDomain := make(map[x509sim.DedupKey]bool, len(certs))
		for _, c := range certs {
			inDomain[c.DedupKey()] = true
		}
		for _, e := range ev.Revocations {
			if !inDomain[e.Key()] {
				continue
			}
			cert, ok := idx.ByKey(e.Key())
			if !ok {
				continue
			}
			if revocationFilter(cert, e.RevokedAt, ev.RevocationCutoff) == "" {
				out = append(out, StaleCert{
					Cert:     cert,
					Method:   MethodRevocation,
					EventDay: e.RevokedAt,
					Reason:   e.Reason,
				})
			}
		}
	}

	for _, rr := range ev.ReRegistrations {
		if rr.Domain != domain {
			continue
		}
		for _, cert := range certs {
			if spansCreation(cert, rr.NewCreation) {
				out = append(out, StaleCert{
					Cert:     cert,
					Method:   MethodRegistrantChange,
					EventDay: rr.NewCreation,
					Domain:   rr.Domain,
				})
			}
		}
	}

	if ev.IsManaged != nil {
		for _, dep := range ev.Departures {
			if dep.Domain != domain {
				continue
			}
			for _, cert := range certs {
				if departureFilter(cert, ev.IsManaged, dep.FirstGone) == "" {
					out = append(out, StaleCert{
						Cert:     cert,
						Method:   MethodManagedTLS,
						EventDay: dep.FirstGone,
						Domain:   dep.Domain,
					})
				}
			}
		}
	}

	sortStale(out)
	return out
}

// EvidenceNeeded reports which event sources can still contribute a verdict
// for a domain holding certs — DomainStaleness's two event loops read
// backwards, so a live service asks a source only when its answer could
// matter. A registrant change can fall inside any certificate's validity (its
// day is not known before asking), so it needs only a certificate; a departure
// dated to day needs one that isManaged and is valid on that day. Revocations
// are joined by key, not asked per domain, and are not covered.
func EvidenceNeeded(certs []*x509sim.Certificate, isManaged ManagedCertPred, day simtime.Day) (registrantChange, departure bool) {
	for _, cert := range certs {
		if isManaged != nil && departureFilter(cert, isManaged, day) == "" {
			return true, true
		}
	}
	return len(certs) > 0, false
}
