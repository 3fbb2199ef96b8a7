package cdn

import (
	"errors"
	"sync/atomic"
	"testing"

	"stalecert/internal/ca"
	"stalecert/internal/dnssim"
	"stalecert/internal/monitor"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

func testProvider(t *testing.T, perDomainFrom simtime.Day) (*Provider, *dnssim.Store) {
	t.Helper()
	var keys atomic.Uint64
	mint := func() x509sim.KeyID { return x509sim.KeyID(keys.Add(1)) }
	cruise := ca.New(ca.Config{
		Profile: ca.Profile{ID: ca.IssuerComodoDV, Name: "COMODO ECC DV Secure Server CA 2", DefaultLifetime: 365},
		NewKey:  mint,
	})
	perDom := ca.New(ca.Config{
		Profile: ca.Profile{ID: ca.IssuerCloudflareECC, Name: "CloudFlare ECC CA-2", DefaultLifetime: 365},
		NewKey:  mint,
	})
	store := dnssim.NewStore()
	store.AddZone(dnssim.NewZone("com"))
	p := New(Config{
		BoatSize:      3,
		CruiseCA:      cruise,
		PerDomainCA:   perDom,
		PerDomainFrom: perDomainFrom,
		Store:         store,
	})
	return p, store
}

func TestEnrollNSInstallsDelegation(t *testing.T) {
	p, store := testProvider(t, 10000)
	cert, err := p.Enroll("shop.com", ModeNS, 100)
	if err != nil {
		t.Fatal(err)
	}
	if cert == nil {
		t.Fatal("no certificate issued")
	}
	zone := store.Zone("com")
	ns := zone.Lookup("shop.com", dnssim.TypeNS)
	if len(ns) != 2 || !monitor.IsCloudflareRecord(ns[0]) {
		t.Fatalf("NS records = %v", ns)
	}
	if a := zone.Lookup("shop.com", dnssim.TypeA); len(a) != 1 || a[0].Data != "104.16.0.1" {
		t.Fatalf("A records = %v", a)
	}
	if !monitor.HasProviderMarker(cert, monitor.MarkerSuffix) {
		t.Fatalf("cert missing marker SAN: %v", cert.Names)
	}
	if !cert.Covers("shop.com") || !cert.Covers("www.shop.com") {
		t.Fatalf("cert coverage: %v", cert.Names)
	}
}

func TestEnrollCNAME(t *testing.T) {
	p, store := testProvider(t, 0) // per-domain era
	if _, err := p.Enroll("blog.com", ModeCNAME, 50); err != nil {
		t.Fatal(err)
	}
	rec := store.Zone("com").Lookup("www.blog.com", dnssim.TypeCNAME)
	if len(rec) != 1 || !monitor.IsCloudflareRecord(rec[0]) {
		t.Fatalf("CNAME = %v", rec)
	}
}

func TestDoubleEnrollRejected(t *testing.T) {
	p, _ := testProvider(t, 0)
	if _, err := p.Enroll("x.com", ModeNS, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Enroll("x.com", ModeNS, 1); !errors.Is(err, ErrEnrolled) {
		t.Fatalf("double enroll: %v", err)
	}
}

func TestCruiseLinerPackingAndReissue(t *testing.T) {
	p, _ := testProvider(t, 10000) // cruise-liner era
	var first *x509sim.Certificate
	for i, d := range []string{"a.com", "b.com", "c.com"} {
		cert, err := p.Enroll(d, ModeNS, simtime.Day(10+i))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = cert
		}
	}
	// Same boat: every enroll reissues with one more member, same key.
	certs := p.Certificates()
	if len(certs) != 3 {
		t.Fatalf("issued %d certs", len(certs))
	}
	for _, c := range certs[1:] {
		if c.Key != first.Key {
			t.Fatal("boat key changed across reissues")
		}
	}
	last := certs[2]
	for _, d := range []string{"a.com", "b.com", "c.com"} {
		if !last.HasName(d) {
			t.Fatalf("final boat cert missing %s: %v", d, last.Names)
		}
	}
	// Fourth customer overflows into a new boat with a fresh key and marker.
	cert4, err := p.Enroll("d.com", ModeNS, 20)
	if err != nil {
		t.Fatal(err)
	}
	if cert4.Key == first.Key {
		t.Fatal("overflow boat reused key")
	}
	if cert4.HasName("a.com") {
		t.Fatal("overflow boat contains other boat's member")
	}
}

func TestDepartReissuesBoatWithoutDomain(t *testing.T) {
	p, store := testProvider(t, 10000)
	for i, d := range []string{"stay.com", "leave.com"} {
		if _, err := p.Enroll(d, ModeNS, simtime.Day(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Depart("leave.com", 100); err != nil {
		t.Fatal(err)
	}
	// DNS delegation removed.
	zone := store.Zone("com")
	for _, r := range zone.Lookup("leave.com", dnssim.TypeNS) {
		if monitor.IsCloudflareRecord(r) {
			t.Fatal("provider NS still present after departure")
		}
	}
	// Boat reissued without the departed domain...
	certs := p.Certificates()
	final := certs[len(certs)-1]
	if final.HasName("leave.com") || !final.HasName("stay.com") {
		t.Fatalf("post-departure boat cert = %v", final.Names)
	}
	// ...but older, still-valid certs naming leave.com remain under the
	// provider's key: the stale-certificate condition.
	stale := 0
	for _, c := range certs {
		if c.HasName("leave.com") && c.ValidOn(100) {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("no stale certificates left behind — departure modelled wrong")
	}
	cust, _ := p.Customer("leave.com")
	if cust.Active() || cust.Departed != 100 {
		t.Fatalf("customer = %+v", cust)
	}
	if cust, ok := p.Customer("stay.com"); !ok || !cust.Active() {
		t.Fatalf("stay.com = %+v, %v", cust, ok)
	}
}

func TestDepartErrors(t *testing.T) {
	p, _ := testProvider(t, 0)
	if err := p.Depart("ghost.com", 0); !errors.Is(err, ErrNotEnrolled) {
		t.Fatalf("depart unknown: %v", err)
	}
	if _, err := p.Enroll("x.com", ModeNS, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Depart("x.com", 10); err != nil {
		t.Fatal(err)
	}
	if err := p.Depart("x.com", 11); !errors.Is(err, ErrNotEnrolled) {
		t.Fatalf("double depart: %v", err)
	}
}

func TestPerDomainEraSwitch(t *testing.T) {
	p, _ := testProvider(t, 500)
	early, err := p.Enroll("early.com", ModeNS, 100)
	if err != nil {
		t.Fatal(err)
	}
	late, err := p.Enroll("late.com", ModeNS, 600)
	if err != nil {
		t.Fatal(err)
	}
	if early.Issuer != ca.IssuerComodoDV {
		t.Fatalf("early issuer = %d", early.Issuer)
	}
	if late.Issuer != ca.IssuerCloudflareECC {
		t.Fatalf("late issuer = %d", late.Issuer)
	}
	if len(late.Names) != 3 { // marker + domain + wildcard
		t.Fatalf("per-domain SANs = %v", late.Names)
	}
}

func TestRenewOnlyNearExpiry(t *testing.T) {
	p, _ := testProvider(t, 0)
	if _, err := p.Enroll("r.com", ModeNS, 0); err != nil {
		t.Fatal(err)
	}
	before := len(p.Certificates())
	// Far from expiry: no-op.
	if err := p.Renew("r.com", 10, 30); err != nil {
		t.Fatal(err)
	}
	if len(p.Certificates()) != before {
		t.Fatal("renewed too early")
	}
	// Within the renewal window (365-day cert, day 350, window 30).
	if err := p.Renew("r.com", 350, 30); err != nil {
		t.Fatal(err)
	}
	if len(p.Certificates()) != before+1 {
		t.Fatal("renewal did not issue")
	}
	if err := p.Renew("ghost.com", 0, 30); !errors.Is(err, ErrNotEnrolled) {
		t.Fatalf("renew unknown: %v", err)
	}
}
