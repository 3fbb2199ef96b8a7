package shard

import (
	"stalecert/internal/core"
	"stalecert/internal/psl"
	"stalecert/internal/x509sim"
)

// CertOwners returns the sorted set of shards that must store cert.
//
// Ownership follows the certificate's registrable domains: every shard
// owning one of the SANs' e2LDs keeps the certificate, so each domain's full
// history lands on the domain's shard and staleness verdicts stay a single
// lookup. For the common single-e2LD certificate this is exactly one shard
// (a disjoint partition of the log); a certificate spanning several e2LDs is
// duplicated onto each owner — correctness of per-domain verdicts beats
// purity of the partition. A certificate with no registrable name (IPs,
// bare-TLD test junk) falls back to its fingerprint key so it still has a
// deterministic home.
func CertOwners(r *Ring, list *psl.List, cert *x509sim.Certificate) []int {
	e2lds := core.CertE2LDs(list, cert)
	if len(e2lds) == 0 {
		return []int{r.Lookup(KeyForFingerprint(cert.Fingerprint().Hex()))}
	}
	seen := make(map[int]bool, len(e2lds))
	var owners []int
	for _, d := range e2lds {
		o := r.Lookup(KeyForDomain(d))
		if !seen[o] {
			seen[o] = true
			owners = append(owners, o)
		}
	}
	// CertE2LDs returns sorted domains but ring positions do not preserve
	// that order; keep the owner set canonical.
	for i := 1; i < len(owners); i++ {
		for j := i; j > 0 && owners[j] < owners[j-1]; j-- {
			owners[j], owners[j-1] = owners[j-1], owners[j]
		}
	}
	return owners
}

// KeepFunc returns the ingest filter for the replica holding slice a, which
// must Validate: keep exactly the certificates whose owner set includes
// a.Index. The filter a certstore Ingester builds from its store's slice, it
// turns N replicas tailing one log into a partitioned fleet.
func KeepFunc(a Assignment, list *psl.List) func(*x509sim.Certificate) bool {
	r := MustRing(a.Count, DefaultVNodes)
	return func(cert *x509sim.Certificate) bool {
		for _, o := range CertOwners(r, list, cert) {
			if o == a.Index {
				return true
			}
		}
		return false
	}
}
