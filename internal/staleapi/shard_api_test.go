package staleapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"stalecert/internal/certstore"
	"stalecert/internal/obs"
	"stalecert/internal/shard"
)

// Regression: cert responses are cached under the canonical 64-hex
// fingerprint, so querying the short 16-hex form and the full form of the
// same certificate populates ONE cache entry, not two divergent ones.
func TestCertCacheCanonicalKey(t *testing.T) {
	store, certs := newTestStore(t)
	srv := NewServer(Config{Store: store, Health: obs.NewHealth()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fp := certs[0].Fingerprint()
	_, full := get(t, ts, "/v1/cert/"+fp.Hex())
	if n := srv.cache.Len(); n != 1 {
		t.Fatalf("cache holds %d entries after full-form query, want 1", n)
	}
	_, short := get(t, ts, "/v1/cert/"+fp.String())
	if n := srv.cache.Len(); n != 1 {
		t.Fatalf("cache holds %d entries after both forms of one cert, want 1 (key not canonicalised)", n)
	}
	if string(full) != string(short) {
		t.Fatalf("forms diverge:\nfull:  %s\nshort: %s", full, short)
	}

	// A different certificate is, of course, a second entry.
	get(t, ts, "/v1/cert/"+certs[1].Fingerprint().String())
	if n := srv.cache.Len(); n != 2 {
		t.Fatalf("cache holds %d entries for two certs, want 2", n)
	}
}

func TestDomainsEndpoint(t *testing.T) {
	store, _ := newTestStore(t)
	srv := NewServer(Config{Store: store, Health: obs.NewHealth()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := get(t, ts, "/v1/domains")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var dr DomainsResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	// newTestStore indexes alpha.com, beta.org, gamma.net and the provider
	// e2LD cloudflaressl.com; the listing is sorted.
	if dr.Total != 4 || len(dr.Domains) != 4 || dr.Domains[0] != "alpha.com" {
		t.Fatalf("domains = %+v", dr)
	}

	_, body = get(t, ts, "/v1/domains?prefix=be")
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Total != 1 || len(dr.Domains) != 1 || dr.Domains[0] != "beta.org" {
		t.Fatalf("prefix filter = %+v", dr)
	}

	_, body = get(t, ts, "/v1/domains?limit=2")
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Total != 4 || len(dr.Domains) != 2 {
		t.Fatalf("limit truncation = %+v, want 2 of 4", dr)
	}

	resp, _ = get(t, ts, "/v1/domains?limit=zero")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit status = %d", resp.StatusCode)
	}
}

// TestShardmapEndpoint: a replica reports the slice its store holds with the
// ring of this build, and an unsharded replica reports the whole keyspace in
// a form a one-slice gateway map agrees with.
func TestShardmapEndpoint(t *testing.T) {
	slice := &shard.Assignment{Index: 1, Count: 3}
	pinned, err := certstore.Open(certstore.Options{Dir: t.TempDir(), Slice: slice})
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Close()
	_, certs := newTestStore(t)
	if _, err := pinned.Append(certs); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(Config{Store: pinned, Health: obs.NewHealth()}).Handler())
	defer ts.Close()

	resp, body := get(t, ts, "/v1/shardmap")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var got shard.Self
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Epoch != shard.Epoch || got.Shard != *slice || got.Certs != len(certs) {
		t.Fatalf("shardmap = %+v, want epoch %d slice 1/3 certs %d", got, shard.Epoch, len(certs))
	}
	if err := got.Agrees(1, 3); err != nil {
		t.Fatalf("slice 1's report disagrees with a 3-slice fleet: %v", err)
	}

	// An unsharded server reports the whole keyspace: slice 0/1.
	store, _ := newTestStore(t)
	tp := httptest.NewServer(NewServer(Config{Store: store, Health: obs.NewHealth()}).Handler())
	defer tp.Close()
	_, body = get(t, tp, "/v1/shardmap")
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Shard != (shard.Assignment{Index: 0, Count: 1}) || got.Version != shard.MapVersion {
		t.Fatalf("unsharded shardmap = %+v, want slice 0/1", got)
	}
	if err := got.Agrees(0, 1); err != nil {
		t.Fatalf("an unsharded replica disagrees with a one-slice fleet: %v", err)
	}
}
