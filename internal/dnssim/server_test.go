package dnssim

import (
	"context"
	"errors"
	"testing"
	"time"
)

func testStore(t testing.TB) *Store {
	t.Helper()
	com := NewZone("com")
	for _, r := range []Record{
		{Name: "example.com", Type: TypeA, TTL: 300, Data: "192.0.2.10"},
		{Name: "example.com", Type: TypeAAAA, TTL: 300, Data: "2001:db8::10"},
		{Name: "example.com", Type: TypeNS, TTL: 86400, Data: "ns1.hoster.net"},
		{Name: "example.com", Type: TypeNS, TTL: 86400, Data: "ns2.hoster.net"},
		{Name: "www.example.com", Type: TypeCNAME, TTL: 300, Data: "example.cdn.cloudflare.com"},
		{Name: "onlyns.com", Type: TypeNS, TTL: 300, Data: "kiki.ns.cloudflare.com"},
	} {
		if err := com.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	cf := NewZone("cloudflare.com")
	if err := cf.Add(Record{Name: "example.cdn.cloudflare.com", Type: TypeA, TTL: 60, Data: "198.51.100.1"}); err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	s.AddZone(com)
	s.AddZone(cf)
	return s
}

func TestStoreResolveDirect(t *testing.T) {
	s := testStore(t)
	recs, rcode, auth := s.Resolve(Question{Name: "example.com", Type: TypeA, Class: ClassIN})
	if rcode != RCodeNoError || !auth || len(recs) != 1 || recs[0].Data != "192.0.2.10" {
		t.Fatalf("resolve = %v %v %v", recs, rcode, auth)
	}
}

func TestStoreResolveCNAMEChase(t *testing.T) {
	s := testStore(t)
	recs, rcode, _ := s.Resolve(Question{Name: "www.example.com", Type: TypeA, Class: ClassIN})
	if rcode != RCodeNoError {
		t.Fatalf("rcode = %v", rcode)
	}
	if len(recs) != 2 || recs[0].Type != TypeCNAME || recs[1].Type != TypeA || recs[1].Data != "198.51.100.1" {
		t.Fatalf("chain = %v", recs)
	}
}

func TestStoreResolveNXDomainAndNoData(t *testing.T) {
	s := testStore(t)
	_, rcode, _ := s.Resolve(Question{Name: "missing.com", Type: TypeA, Class: ClassIN})
	if rcode != RCodeNXDomain {
		t.Fatalf("NXDOMAIN rcode = %v", rcode)
	}
	recs, rcode, _ := s.Resolve(Question{Name: "onlyns.com", Type: TypeA, Class: ClassIN})
	if rcode != RCodeNoError || len(recs) != 0 {
		t.Fatalf("NODATA = %v %v", recs, rcode)
	}
	_, rcode, auth := s.Resolve(Question{Name: "example.org", Type: TypeA, Class: ClassIN})
	if rcode != RCodeRefused || auth {
		t.Fatalf("out-of-bailiwick = %v auth=%v", rcode, auth)
	}
}

func TestServerOverUDP(t *testing.T) {
	s := testStore(t)
	srv := NewServer(s)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	r := &Resolver{ServerAddr: addr.String(), Timeout: time.Second}
	ctx := context.Background()

	recs, err := r.Query(ctx, "example.com", TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Data != "192.0.2.10" {
		t.Fatalf("A = %v", recs)
	}

	recs, err = r.Query(ctx, "www.example.com", TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("CNAME chain over UDP = %v", recs)
	}

	recs, err = r.Query(ctx, "example.com", TypeNS)
	if err != nil || len(recs) != 2 {
		t.Fatalf("NS = %v, %v", recs, err)
	}

	_, err = r.Query(ctx, "missing.com", TypeA)
	var nx *NXDomainError
	if !errors.As(err, &nx) || nx.Name != "missing.com" {
		t.Fatalf("NXDOMAIN over UDP: %v", err)
	}
}

func TestServerTruncatesOversizedResponses(t *testing.T) {
	z := NewZone("big.test")
	// 40 TXT records of ~100 bytes blows through 512 bytes.
	for i := 0; i < 40; i++ {
		if err := z.Add(Record{
			Name: "big.test", Type: TypeTXT, TTL: 60,
			Data: "record-" + itoa(i) + "-" + string(make([]byte, 0, 1)) + "abcdefghijklmnopqrstuvwxyz0123456789",
		}); err != nil {
			t.Fatal(err)
		}
	}
	s := NewStore()
	s.AddZone(z)
	srv := NewServer(s)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	r := &Resolver{ServerAddr: addr.String(), Timeout: time.Second}
	_, err = r.Query(context.Background(), "big.test", TypeTXT)
	if !errors.Is(err, ErrTruncatedR) {
		t.Fatalf("expected truncation, got %v", err)
	}
}

func TestServerConcurrentQueriesDuringMutation(t *testing.T) {
	s := testStore(t)
	srv := NewServer(s)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		com := s.Zone("com")
		for i := 0; i < 200; i++ {
			s.Mutate(func() {
				com.Remove("example.com", TypeA, "")
				_ = com.Add(Record{Name: "example.com", Type: TypeA, TTL: 300, Data: "192.0.2." + itoa(i%250)})
			})
		}
	}()

	r := &Resolver{ServerAddr: addr.String(), Timeout: time.Second}
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if _, err := r.Query(ctx, "example.com", TypeA); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	<-done
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := NewServer(NewStore())
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("second close errored")
	}
}

func TestZoneAddRemove(t *testing.T) {
	z := NewZone("com")
	r := Record{Name: "Example.COM", Type: TypeA, TTL: 60, Data: "192.0.2.1"}
	if err := z.Add(r); err != nil {
		t.Fatal(err)
	}
	if err := z.Add(r); err != nil { // duplicate ignored
		t.Fatal(err)
	}
	if z.Len() != 1 {
		t.Fatalf("len = %d", z.Len())
	}
	if got := z.Lookup("example.com", TypeA); len(got) != 1 {
		t.Fatalf("lookup = %v", got)
	}
	if err := z.Add(Record{Name: "example.org", Type: TypeA, TTL: 1, Data: "192.0.2.1"}); err == nil {
		t.Fatal("out-of-zone record accepted")
	}
	if n := z.Remove("example.com", TypeA, "192.0.2.1"); n != 1 {
		t.Fatalf("removed %d", n)
	}
	if z.Len() != 0 {
		t.Fatal("zone not empty after remove")
	}
}

func TestParseZoneFile(t *testing.T) {
	text := `
; registry zone extract
example.com 86400 IN NS ns1.hoster.net
example.com 86400 IN NS kiki.ns.cloudflare.com
www.example.com 300 IN CNAME example.cdn.cloudflare.com ; delegated
shop.example.com 300 IN A 192.0.2.77
`
	z, err := ParseZoneFile("com", text)
	if err != nil {
		t.Fatal(err)
	}
	if z.Len() != 4 {
		t.Fatalf("parsed %d records", z.Len())
	}
	if ns := z.Lookup("example.com", TypeNS); len(ns) != 2 || ns[0].TTL != 86400 {
		t.Fatalf("example.com NS = %+v", ns)
	}
	if cn := z.Lookup("www.example.com", TypeCNAME); len(cn) != 1 || cn[0].Data != "example.cdn.cloudflare.com" {
		t.Fatalf("www.example.com CNAME = %+v (the trailing comment is not data)", cn)
	}
}

func TestZoneFileErrors(t *testing.T) {
	cases := []string{
		"example.com 300 IN",                     // too few fields
		"example.com abc IN A 192.0.2.1",         // bad TTL
		"example.com 300 CH A 192.0.2.1",         // bad class
		"example.com 300 IN MX mail.example.com", // unsupported type
		"example.com 300 IN A not-an-ip",         // bad data
	}
	for _, text := range cases {
		if _, err := ParseZoneFile("com", text); err == nil {
			t.Errorf("ParseZoneFile(%q) accepted", text)
		}
	}
}
