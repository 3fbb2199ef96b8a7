package shard

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"stalecert/internal/core"
	"stalecert/internal/psl"
	"stalecert/internal/x509sim"
)

// keepCorpus is a seeded mix of the certificate shapes placement has cases
// for: single names, www pairs, wildcards, boats (a provider-marker SAN plus
// customer domains, some sharing an e2LD), and names with no registrable
// domain alone or beside a registrable one.
func keepCorpus(t *testing.T, seed uint64, n int) []*x509sim.Certificate {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0))
	domain := func() string {
		return fmt.Sprintf("cust%03d.%s", rng.IntN(400), []string{"com", "org", "co.uk", "net"}[rng.IntN(4)])
	}
	certs := make([]*x509sim.Certificate, 0, n)
	for i := 0; len(certs) < n; i++ {
		var names []string
		switch rng.IntN(6) {
		case 0:
			names = []string{domain()}
		case 1:
			d := domain()
			names = []string{d, "www." + d}
		case 2:
			names = []string{"*." + domain()}
		case 3, 4: // a boat
			names = []string{fmt.Sprintf("sni%05d.cloudflaressl.com", rng.IntN(1000))}
			for k := 1 + rng.IntN(30); k > 0; k-- {
				d := domain()
				names = append(names, d, "*."+d)
			}
		case 5: // no registrable domain, alone or beside one
			names = []string{[]string{"com", "co.uk", "org"}[rng.IntN(3)]}
			if rng.IntN(2) == 0 {
				names = append(names, domain())
			}
		}
		c, err := x509sim.New(x509sim.SerialNumber(i+1), 1, x509sim.KeyID(i+1), names, 100, 500)
		if err != nil {
			t.Fatal(err)
		}
		certs = append(certs, c)
	}
	return certs
}

// Keeps is the one-pass form of "CertOwners includes the slice": on every
// corpus, ring size and slice the two agree certificate by certificate.
func TestKeepsMatchesCertOwners(t *testing.T) {
	list := psl.Default()
	var bare, boats int
	for seed := uint64(1); seed <= 3; seed++ {
		certs := keepCorpus(t, seed, 400)
		for _, count := range []int{1, 2, 3, 5} {
			r := MustRing(count, DefaultVNodes)
			for _, c := range certs {
				e2lds := core.CertE2LDs(list, c)
				owners := CertOwners(r, list, c)
				for index := 0; index < count; index++ {
					if got, want := Keeps(r, index, e2lds, c.Fingerprint()), slices.Contains(owners, index); got != want {
						t.Fatalf("seed %d, slice %d/%d: Keeps = %v, CertOwners %v, for %v", seed, index, count, got, owners, c.Names)
					}
				}
				if count == 5 {
					if len(e2lds) == 0 {
						bare++
					}
					if len(owners) > 1 {
						boats++
					}
				}
			}
		}
	}
	if bare == 0 || boats == 0 {
		t.Fatalf("corpora hold %d certificates with no registrable domain and %d on several slices; want both", bare, boats)
	}
}
