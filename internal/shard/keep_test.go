package shard

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"stalecert/internal/core"
	"stalecert/internal/monitor"
	"stalecert/internal/psl"
	"stalecert/internal/x509sim"
)

// keepCorpus is a seeded mix of the certificate shapes placement has cases
// for: single names, www pairs, wildcards, boats (a provider-marker SAN plus
// customer domains, some sharing an e2LD), names with no registrable domain
// alone or beside a registrable one, and a marker SAN alone.
func keepCorpus(t *testing.T, seed uint64, n int) []*x509sim.Certificate {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0))
	domain := func() string {
		return fmt.Sprintf("cust%03d.%s", rng.IntN(400), []string{"com", "org", "co.uk", "net"}[rng.IntN(4)])
	}
	certs := make([]*x509sim.Certificate, 0, n)
	for i := 0; len(certs) < n; i++ {
		var names []string
		switch rng.IntN(7) {
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
		case 6:
			names = []string{fmt.Sprintf("sni%05d.%s", rng.IntN(1000), monitor.MarkerSuffix)}
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

// The provider marker is no placement key: a boat whose customers all lie off
// the marker's slice is not kept there, and a certificate naming only the
// marker is kept where its fingerprint places it.
func TestMarkerIsNotAPlacementKey(t *testing.T) {
	const count = 4
	r := MustRing(count, DefaultVNodes)
	list := psl.Default()
	markerSlice := r.Lookup(KeyForDomain(monitor.MarkerSuffix))
	check := func(c *x509sim.Certificate, want int) {
		t.Helper()
		if got := CertOwners(r, list, c); !slices.Equal(got, []int{want}) {
			t.Fatalf("%v is owned by %v, want [%d] (the marker's slice is %d)", c.Names, got, want, markerSlice)
		}
		for index := 0; index < count; index++ {
			if Keeps(r, index, core.CertE2LDs(list, c), c.Fingerprint()) != (index == want) {
				t.Fatalf("slice %d's ingest filter disagrees with %v's owner %d", index, c.Names, want)
			}
		}
	}

	// A boat of five customers, all on one slice that is not the marker's.
	var customers []string
	for i := 0; len(customers) < 10; i++ {
		d := fmt.Sprintf("cust%03d.com", i)
		if r.Lookup(KeyForDomain(d)) == (markerSlice+1)%count {
			customers = append(customers, d, "*."+d)
		}
	}
	boat, err := x509sim.New(1, 1, 1, append([]string{"sni1." + monitor.MarkerSuffix}, customers...), 100, 500)
	if err != nil {
		t.Fatal(err)
	}
	check(boat, (markerSlice+1)%count)

	// Marker-only certificates, one whose fingerprint lies off the marker's
	// slice among them.
	off := false
	for serial := 1; serial <= 8; serial++ {
		c, err := x509sim.New(x509sim.SerialNumber(serial), 1, x509sim.KeyID(serial), []string{fmt.Sprintf("sni%d.%s", serial, monitor.MarkerSuffix)}, 100, 500)
		if err != nil {
			t.Fatal(err)
		}
		home := r.Lookup(KeyForFingerprint(c.Fingerprint().Hex()))
		off = off || home != markerSlice
		check(c, home)
	}
	if !off {
		t.Fatal("every marker-only certificate's fingerprint lies on the marker's slice; want one off it")
	}
}
