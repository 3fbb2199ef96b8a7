package ctlog

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"stalecert/internal/merkle"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

func newTestServer(t *testing.T) (*Log, *Server, *Client) {
	t.Helper()
	l := New("wiretest", Shard{})
	srv := NewServer(l)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return l, srv, NewClient(ts.URL, ts.Client())
}

func TestHTTPAddChainAndGetSTH(t *testing.T) {
	_, srv, client := newTestServer(t)
	srv.SetNow(42)
	ctx := context.Background()

	cert := testCert(t, 1, "wire.com", 0, 90)
	sct, err := client.AddChain(ctx, cert)
	if err != nil {
		t.Fatal(err)
	}
	if sct.Index != 0 || sct.Timestamp != 42 || sct.LogName != "wiretest" {
		t.Fatalf("sct = %+v", sct)
	}
	sth, err := client.GetSTH(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sth.Size != 1 || sth.Timestamp != 42 {
		t.Fatalf("sth = %+v", sth)
	}
}

func TestHTTPGetEntriesRoundTrip(t *testing.T) {
	_, srv, client := newTestServer(t)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		srv.SetNow(simtime.Day(i))
		cert := testCert(t, uint64(i+1), "wire.com", 0, simtime.Day(90+i))
		if _, err := client.AddChain(ctx, cert); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := client.GetEntries(ctx, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("got %d entries", len(entries))
	}
	for i, e := range entries {
		if e.Index != uint64(i+1) {
			t.Fatalf("entry %d has index %d", i, e.Index)
		}
		if e.Cert.Serial != x509sim.SerialNumber(i+2) {
			t.Fatalf("entry %d serial %d", i, e.Cert.Serial)
		}
		if e.Timestamp != simtime.Day(i+1) {
			t.Fatalf("entry %d timestamp %v", i, e.Timestamp)
		}
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	_, _, client := newTestServer(t)
	ctx := context.Background()
	_, err := client.GetEntries(ctx, 5, 3)
	var re *RemoteError
	if !errors.As(err, &re) || re.StatusCode != 400 {
		t.Fatalf("err = %v", err)
	}
	leaf := merkle.LeafHash([]byte("nope"))
	if _, status := proofByHash(t, client, leaf, 1); status != http.StatusNotFound {
		t.Fatalf("proof for an unknown leaf: status %d, want 404", status)
	}
}

// proofByHash asks the log's get-proof-by-hash endpoint with a raw GET and
// returns the decoded answer with the status.
func proofByHash(t *testing.T, c *Client, leaf merkle.Hash, size uint64) (getProofByHashResponse, int) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/ct/v1/get-proof-by-hash?hash=%s&tree_size=%d",
		c.base, url.QueryEscape(base64.StdEncoding.EncodeToString(leaf[:])), size))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out getProofByHashResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

func TestHTTPBatchLimitPaging(t *testing.T) {
	_, srv, client := newTestServer(t)
	ctx := context.Background()
	srv.SetNow(1)
	const n = MaxEntriesPerGet + 37
	for i := 0; i < n; i++ {
		cert := testCert(t, uint64(i+1), "wire.com", 0, 90)
		if _, err := client.AddChain(ctx, cert); err != nil {
			t.Fatal(err)
		}
	}
	// A single oversized request is truncated to the server batch limit.
	got, err := client.GetEntries(ctx, 0, n-1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != MaxEntriesPerGet {
		t.Fatalf("oversized get returned %d", len(got))
	}
	// Scrape pages through everything.
	entries, sth, err := client.Scrape(ctx, ScrapeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != n || sth.Size != n {
		t.Fatalf("scraped %d of %d", len(entries), n)
	}
}

func TestHTTPScrapeWithInclusionVerification(t *testing.T) {
	_, srv, client := newTestServer(t)
	ctx := context.Background()
	srv.SetNow(7)
	for i := 0; i < 33; i++ {
		cert := testCert(t, uint64(i+1), "audit.com", 0, simtime.Day(100+i))
		if _, err := client.AddChain(ctx, cert); err != nil {
			t.Fatal(err)
		}
	}
	entries, sth, err := client.Scrape(ctx, ScrapeOptions{BatchSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 33 || sth.Size != 33 {
		t.Fatalf("scraped %d", len(entries))
	}
	// Every scraped entry is included in the tree the STH commits to.
	for _, e := range entries {
		leaf := merkle.LeafHash(e.LeafData())
		got, status := proofByHash(t, client, leaf, sth.Size)
		if status != http.StatusOK {
			t.Fatalf("proof for %d: status %d", e.Index, status)
		}
		proof, err := decodeHashes(got.AuditPath)
		if err != nil {
			t.Fatal(err)
		}
		if got.LeafIndex != e.Index || !merkle.VerifyInclusion(leaf, got.LeafIndex, sth.Size, proof, sth.Root) {
			t.Fatalf("inclusion verification failed for %d", e.Index)
		}
	}
}

func TestHTTPConsistencyAcrossGrowth(t *testing.T) {
	l, srv, client := newTestServer(t)
	ctx := context.Background()
	srv.SetNow(1)
	for i := 0; i < 10; i++ {
		if _, err := client.AddChain(ctx, testCert(t, uint64(i+1), "c.com", 0, 90)); err != nil {
			t.Fatal(err)
		}
	}
	sth1, err := client.GetSTH(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 25; i++ {
		if _, err := client.AddChain(ctx, testCert(t, uint64(i+1), "c.com", 0, 90)); err != nil {
			t.Fatal(err)
		}
	}
	sth2, err := client.GetSTH(ctx)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := client.GetConsistency(ctx, sth1.Size, sth2.Size)
	if err != nil {
		t.Fatal(err)
	}
	if !merkle.VerifyConsistency(sth1.Size, sth2.Size, sth1.Root, sth2.Root, proof) {
		t.Fatal("wire consistency proof failed")
	}
	if !l.VerifySTH(sth2) {
		t.Fatal("scraped STH signature invalid")
	}
}

func TestHTTPIncrementalScrape(t *testing.T) {
	_, srv, client := newTestServer(t)
	ctx := context.Background()
	srv.SetNow(1)
	for i := 0; i < 8; i++ {
		if _, err := client.AddChain(ctx, testCert(t, uint64(i+1), "inc.com", 0, 90)); err != nil {
			t.Fatal(err)
		}
	}
	first, _, err := client.Scrape(ctx, ScrapeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 8; i < 15; i++ {
		if _, err := client.AddChain(ctx, testCert(t, uint64(i+1), "inc.com", 0, 90)); err != nil {
			t.Fatal(err)
		}
	}
	rest, _, err := client.Scrape(ctx, ScrapeOptions{From: uint64(len(first))})
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 7 || rest[0].Index != 8 {
		t.Fatalf("incremental scrape got %d starting at %d", len(rest), rest[0].Index)
	}
}

func TestHTTPRejectsMalformedSubmissions(t *testing.T) {
	_, _, client := newTestServer(t)
	ctx := context.Background()
	// Hand-roll a bad request through the typed client by bypassing: a cert
	// that fails shard checks on a sharded server.
	l2 := New("sharded", Shard{Start: 1000, End: 2000})
	srv2 := NewServer(l2)
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	c2 := NewClient(ts2.URL, ts2.Client())
	_, err := c2.AddChain(ctx, testCert(t, 1, "x.com", 0, 90))
	var re *RemoteError
	if !errors.As(err, &re) || re.StatusCode != 400 {
		t.Fatalf("shard rejection over wire: %v", err)
	}
	_ = client
}
