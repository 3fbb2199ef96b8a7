package monitor

import (
	"context"
	"testing"
	"time"

	"stalecert/internal/dnssim"
	"stalecert/internal/x509sim"
)

func TestHasProviderMarker(t *testing.T) {
	for _, tc := range []struct {
		names []string
		want  bool
	}{
		{[]string{"sni123.cloudflaressl.com", "x.com"}, true},
		{[]string{"x.com"}, false},
		// A customer-uploaded cert that happens to contain the bare suffix is
		// not a managed cert.
		{[]string{"cloudflaressl.com"}, false},
	} {
		c, err := x509sim.New(1, 1, 1, tc.names, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := HasProviderMarker(c, MarkerSuffix); got != tc.want {
			t.Errorf("HasProviderMarker(%v) = %v, want %v", tc.names, got, tc.want)
		}
	}
}

func TestIsCloudflareRecord(t *testing.T) {
	for _, tc := range []struct {
		typ  dnssim.RRType
		data string
		want bool
	}{
		{dnssim.TypeNS, "kiki.ns.cloudflare.com", true},
		{dnssim.TypeNS, "ns.cloudflare.com", true}, // the bare suffix is the provider's own name
		{dnssim.TypeNS, "ns1.hoster.net", false},
		{dnssim.TypeNS, "kiki.ns.cloudflare.com.evil.net", false},
		{dnssim.TypeNS, "x.cdn.cloudflare.com", false}, // an edge name is no nameserver
		{dnssim.TypeCNAME, "shop-com.cdn.cloudflare.com", true},
		{dnssim.TypeCNAME, "cdn.cloudflare.com", true},
		{dnssim.TypeCNAME, "shop.com", false},
		{dnssim.TypeCNAME, "kiki.ns.cloudflare.com", false}, // a nameserver is no edge
		{dnssim.TypeA, "104.16.0.1", false},
	} {
		r := dnssim.Record{Name: "shop.com", Type: tc.typ, TTL: 60, Data: tc.data}
		if got := IsCloudflareRecord(r); got != tc.want {
			t.Errorf("IsCloudflareRecord(%v %s) = %v, want %v", tc.typ, tc.data, got, tc.want)
		}
	}
}

// TestProviderDelegated asks the two questions over UDP against a loopback
// authoritative server: an apex NS at the provider, a www CNAME at its edge,
// a self-hosted domain and a name the zone does not hold.
func TestProviderDelegated(t *testing.T) {
	com := dnssim.NewZone("com")
	for _, r := range []dnssim.Record{
		{Name: "ns.com", Type: dnssim.TypeNS, TTL: 300, Data: "kiki.ns.cloudflare.com"},
		{Name: "cname.com", Type: dnssim.TypeA, TTL: 300, Data: "192.0.2.1"},
		{Name: "www.cname.com", Type: dnssim.TypeCNAME, TTL: 300, Data: "cname-com.cdn.cloudflare.com"},
		{Name: "self.com", Type: dnssim.TypeNS, TTL: 300, Data: "ns1.hoster.net"},
		{Name: "www.self.com", Type: dnssim.TypeCNAME, TTL: 300, Data: "self.com"},
	} {
		if err := com.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	store := dnssim.NewStore()
	store.AddZone(com)
	srv := dnssim.NewServer(store)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resolver := &dnssim.Resolver{ServerAddr: addr.String(), Timeout: time.Second}
	for domain, want := range map[string]bool{"ns.com": true, "cname.com": true, "self.com": false, "gone.com": false} {
		got, err := ProviderDelegated(context.Background(), resolver, domain)
		if err != nil || got != want {
			t.Errorf("ProviderDelegated(%s) = %v, %v; want %v", domain, got, err, want)
		}
	}
}
