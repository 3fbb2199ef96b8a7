package dnssim

import (
	"context"
	"strings"
	"testing"
	"time"
)

func isCloudflare(r Record) bool {
	switch r.Type {
	case TypeNS:
		return strings.HasSuffix(r.Data, ".ns.cloudflare.com")
	case TypeCNAME:
		return strings.HasSuffix(r.Data, ".cdn.cloudflare.com")
	}
	return false
}

func TestSnapshotBasics(t *testing.T) {
	s := NewSnapshot(100)
	s.Add("a.com", Record{Name: "a.com", Type: TypeNS, Data: "kiki.ns.cloudflare.com"})
	s.Add("b.com") // scanned, empty
	if !s.Scanned("a.com") || !s.Scanned("b.com") || s.Scanned("c.com") {
		t.Fatal("Scanned semantics")
	}
	if !s.Matches("a.com", isCloudflare) || s.Matches("b.com", isCloudflare) {
		t.Fatal("Matches semantics")
	}
	if got := s.Domains(); len(got) != 2 || got[0] != "a.com" {
		t.Fatalf("Domains = %v", got)
	}
	counts := s.CountByType()
	if counts[TypeNS] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestFindDepartures(t *testing.T) {
	prev := NewSnapshot(100)
	prev.Add("leaving.com", Record{Name: "leaving.com", Type: TypeNS, Data: "kiki.ns.cloudflare.com"})
	prev.Add("staying.com", Record{Name: "staying.com", Type: TypeNS, Data: "kiki.ns.cloudflare.com"})
	prev.Add("unrelated.com", Record{Name: "unrelated.com", Type: TypeNS, Data: "ns1.other.net"})
	prev.Add("vanishing.com", Record{Name: "vanishing.com", Type: TypeNS, Data: "kiki.ns.cloudflare.com"})

	next := NewSnapshot(101)
	next.Add("leaving.com", Record{Name: "leaving.com", Type: TypeNS, Data: "ns1.selfhost.net"})
	next.Add("staying.com", Record{Name: "staying.com", Type: TypeNS, Data: "kiki.ns.cloudflare.com"})
	next.Add("unrelated.com", Record{Name: "unrelated.com", Type: TypeNS, Data: "ns2.other.net"})
	// vanishing.com not scanned on day 101: must NOT count as departure.

	deps := FindDepartures(prev, next, isCloudflare)
	if len(deps) != 1 {
		t.Fatalf("departures = %+v", deps)
	}
	d := deps[0]
	if d.Domain != "leaving.com" || d.LastSeen != 100 || d.FirstGone != 101 {
		t.Fatalf("departure = %+v", d)
	}
}

func TestWireScannerEndToEnd(t *testing.T) {
	com := NewZone("com")
	records := []Record{
		{Name: "cf.com", Type: TypeNS, TTL: 300, Data: "kiki.ns.cloudflare.com"},
		{Name: "cf.com", Type: TypeA, TTL: 300, Data: "192.0.2.1"},
		{Name: "www.self.com", Type: TypeCNAME, TTL: 300, Data: "self.com"},
		{Name: "self.com", Type: TypeA, TTL: 300, Data: "192.0.2.2"},
	}
	for _, r := range records {
		if err := com.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	store := NewStore()
	store.AddZone(com)
	srv := NewServer(store)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ws := &WireScanner{Resolver: &Resolver{ServerAddr: addr.String(), Timeout: time.Second}}
	snap, err := ws.Scan(context.Background(), 42, []string{"cf.com", "self.com", "gone.com"})
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Matches("cf.com", isCloudflare) {
		t.Fatal("cloudflare NS not observed over the wire")
	}
	if snap.Matches("self.com", isCloudflare) {
		t.Fatal("self-hosted domain misclassified")
	}
	if !snap.Scanned("gone.com") {
		t.Fatal("NXDOMAIN should still mark domain as scanned")
	}
	if len(snap.Records("gone.com")) != 0 {
		t.Fatal("NXDOMAIN produced records")
	}
}

func TestDirectScannerMatchesWireScanner(t *testing.T) {
	com := NewZone("com")
	for _, r := range []Record{
		{Name: "x.com", Type: TypeNS, TTL: 300, Data: "kiki.ns.cloudflare.com"},
		{Name: "x.com", Type: TypeA, TTL: 300, Data: "192.0.2.9"},
		{Name: "www.x.com", Type: TypeCNAME, TTL: 300, Data: "x.cdn.cloudflare.com"},
	} {
		if err := com.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	store := NewStore()
	store.AddZone(com)
	srv := NewServer(store)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	domains := []string{"x.com", "missing.com"}
	ws := &WireScanner{Resolver: &Resolver{ServerAddr: addr.String(), Timeout: time.Second}}
	wireSnap, err := ws.Scan(context.Background(), 7, domains)
	if err != nil {
		t.Fatal(err)
	}
	direct := &DirectScanner{Store: store}
	directSnap := direct.Scan(7, domains)

	for _, d := range domains {
		if wireSnap.Scanned(d) != directSnap.Scanned(d) {
			t.Fatalf("%s: scanned disagreement", d)
		}
		if wireSnap.Matches(d, isCloudflare) != directSnap.Matches(d, isCloudflare) {
			t.Fatalf("%s: match disagreement", d)
		}
	}
}
