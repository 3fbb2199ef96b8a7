package shard

import (
	"iter"
	"slices"

	"stalecert/internal/core"
	"stalecert/internal/monitor"
	"stalecert/internal/psl"
	"stalecert/internal/x509sim"
)

// owners yields the slice owning each of a certificate's placement keys,
// given its e2LDs (core.CertE2LDs) and fingerprint, once per key, so a slice
// may repeat. The placement keys are the certificate's registrable domains
// except the provider marker's (monitor.MarkerSuffix): an sni<N> SAN is how
// a provider-managed certificate is recognised, not a domain anyone operates,
// and the customers' slices already hold the certificate. A certificate left
// with no key — no registrable name, or only the marker — is placed by its
// fingerprint.
func (r *Ring) owners(e2lds []string, fp x509sim.Fingerprint) iter.Seq[int] {
	return func(yield func(int) bool) {
		placed := false
		for _, d := range e2lds {
			if d = domainKeyBody(d); d != monitor.MarkerSuffix {
				placed = true
				if !yield(r.owner(hash64(domainKeyPrefix, d))) {
					return
				}
			}
		}
		if !placed {
			yield(r.Lookup(KeyForFingerprint(fp.Hex())))
		}
	}
}

// CertOwners returns the sorted set of slices that must store cert: the
// owners of its placement keys. Each domain's whole history lands on the
// domain's slice, so a staleness verdict stays a single lookup. A
// certificate naming one registrable domain has one owner (a disjoint
// partition of the log); one naming several customers is duplicated onto
// each customer's slice, but not onto the provider marker's.
func CertOwners(r *Ring, list *psl.List, cert *x509sim.Certificate) []int {
	return slices.Compact(slices.Sorted(r.owners(core.CertE2LDs(list, cert), cert.Fingerprint())))
}

// Keeps reports whether slice index of r keeps a certificate with these
// e2LDs (core.CertE2LDs of it) and fingerprint: whether CertOwners would
// include index, decided with no owner set built. This is the filter a
// certstore Ingester applies to every entry, turning N replicas tailing one
// log into a partitioned fleet.
func Keeps(r *Ring, index int, e2lds []string, fp x509sim.Fingerprint) bool {
	for o := range r.owners(e2lds, fp) {
		if o == index {
			return true
		}
	}
	return false
}
