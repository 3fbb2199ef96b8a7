package ctlog

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"stalecert/internal/merkle"
	"stalecert/internal/simtime"
)

func TestShardString(t *testing.T) {
	if got := (Shard{}).String(); got != "unsharded" {
		t.Fatalf("unsharded = %q", got)
	}
	s := Shard{Start: simtime.MustParse("2021-01-01"), End: simtime.MustParse("2022-01-01")}
	if got := s.String(); got != "2021-01-01..2022-01-01" {
		t.Fatalf("shard = %q", got)
	}
}

func TestVerifySTHRejectsWrongLog(t *testing.T) {
	a := New("log-a", Shard{})
	b := New("log-b", Shard{})
	if _, err := a.AddChain(testCert(t, 1, "x.com", 0, 9), 3); err != nil {
		t.Fatal(err)
	}
	sth := a.STH()
	if b.VerifySTH(sth) {
		t.Fatal("log B verified log A's STH")
	}
}

func TestHTTPConsistencyBadParams(t *testing.T) {
	l := New("c", Shard{})
	srv := NewServer(l)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())
	if _, err := client.GetConsistency(context.Background(), 5, 2); err == nil {
		t.Fatal("inverted consistency accepted")
	}
}

func TestHTTPProofBadHashParam(t *testing.T) {
	l := New("p", Shard{})
	srv := NewServer(l)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/ct/v1/get-proof-by-hash?hash=%21%21&tree_size=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad hash param status = %d", resp.StatusCode)
	}
	// Wrong-length hash also rejected.
	resp2, err := ts.Client().Get(ts.URL + "/ct/v1/get-proof-by-hash?hash=YWJj&tree_size=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != 400 {
		t.Fatalf("short hash status = %d", resp2.StatusCode)
	}
}

func TestHTTPMalformedAddChainBodies(t *testing.T) {
	l := New("m", Shard{})
	srv := NewServer(l)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, body := range []string{"", "{", `{"chain":[]}`, `{"chain":["!!!"]}`, `{"chain":["YWJj"]}`} {
		resp, err := ts.Client().Post(ts.URL+"/ct/v1/add-chain", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("body %q: status %d", body, resp.StatusCode)
		}
	}
}

func TestDecodeLeafInputErrors(t *testing.T) {
	if _, err := DecodeLeafInput([]byte{1, 2}); err == nil {
		t.Fatal("short leaf input accepted")
	}
	if _, err := DecodeLeafInput(append(make([]byte, 4), 0xFF)); err == nil {
		t.Fatal("garbage cert accepted")
	}
}

func TestRootAtOnLog(t *testing.T) {
	l := New("r", Shard{})
	if _, err := l.AddChain(testCert(t, 1, "x.com", 0, 9), 1); err != nil {
		t.Fatal(err)
	}
	r0, err := l.RootAt(0)
	if err != nil || r0 != merkle.EmptyRoot() {
		t.Fatalf("RootAt(0) = %v %v", r0, err)
	}
	if _, err := l.RootAt(5); err == nil {
		t.Fatal("RootAt beyond size accepted")
	}
}
