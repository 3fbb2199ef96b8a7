package crl

import (
	"context"
	"flag"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"stalecert/internal/obs"
	"stalecert/internal/resil"
	"stalecert/internal/x509sim"
)

// TestLedgerDistinguishesExhaustedFromNeverAttempted is the regression test
// for the coverage-ledger fix: a CA whose retries all fail must appear in the
// ledger as attempted-and-exhausted, while CAs the run never reached (the
// context was already cancelled) must leave no row at all. Previously a
// cancellation mid-retry dropped the in-flight CA from the ledger, making
// "retries exhausted" indistinguishable from "never attempted".
func TestLedgerDistinguishesExhaustedFromNeverAttempted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Every request for CA "alpha" is blocked; cancel the run while its
		// retries are in flight so "beta" is never attempted.
		if calls.Add(1) == 2 {
			cancel()
		}
		http.Error(w, "automated access denied", http.StatusForbidden)
	}))
	defer srv.Close()

	ledger := NewCoverageLedger()
	f := &Fetcher{Base: srv.URL, Ledger: ledger, Attempts: 4}
	_, err := f.FetchAll(ctx, []string{"alpha", "beta"})
	if err == nil {
		t.Fatal("expected context cancellation error")
	}

	rows := ledger.Rows()
	if len(rows) != 1 {
		t.Fatalf("ledger rows = %d (%v), want exactly 1: the in-flight CA", len(rows), rows)
	}
	got := rows[0]
	if got.CAName != "alpha" {
		t.Errorf("ledger row CA = %q, want alpha", got.CAName)
	}
	if got.Attempted != 1 || got.Succeeded != 0 || got.Canceled != 1 {
		t.Errorf("alpha coverage = %+v, want Attempted=1 Succeeded=0 Canceled=1", got)
	}
	// beta must NOT be in the ledger: it was never attempted.
	for _, r := range rows {
		if r.CAName == "beta" {
			t.Error("never-attempted CA beta must not appear in the ledger")
		}
	}
}

// TestLedgerRecordsRetryExhausted checks the uncancelled failure path: all
// retries fail, the CA is recorded as exhausted, and the fetch moves on.
func TestLedgerRecordsRetryExhausted(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/crl/good" {
			a := NewAuthority("good")
			a.Revoke(1, x509sim.SerialNumber(1), 10, KeyCompromise)
			w.Header().Set("Content-Type", "application/pkix-crl")
			_, _ = w.Write(a.Snapshot(20).Marshal())
			return
		}
		http.Error(w, "automated access denied", http.StatusForbidden)
	}))
	defer srv.Close()

	ledger := NewCoverageLedger()
	f := &Fetcher{Base: srv.URL, Ledger: ledger, Attempts: 3}
	lists, err := f.FetchAll(context.Background(), []string{"blocked", "good"})
	if err != nil {
		t.Fatalf("FetchAll: %v", err)
	}
	if len(lists) != 1 || lists["good"] == nil {
		t.Fatalf("lists = %v, want only good", lists)
	}

	rows := ledger.Rows()
	if len(rows) != 2 {
		t.Fatalf("ledger rows = %d, want 2", len(rows))
	}
	byName := map[string]Coverage{}
	for _, r := range rows {
		byName[r.CAName] = r
	}
	if c := byName["blocked"]; c.Attempted != 1 || c.Exhausted != 1 || c.Canceled != 0 {
		t.Errorf("blocked coverage = %+v, want Attempted=1 Exhausted=1", c)
	}
	if c := byName["good"]; c.Attempted != 1 || c.Succeeded != 1 {
		t.Errorf("good coverage = %+v, want Attempted=1 Succeeded=1", c)
	}
	total := ledger.Total()
	if total.Attempted != 2 || total.Succeeded != 1 || total.Exhausted != 1 {
		t.Errorf("total = %+v", total)
	}
}

// TestFetcherRidesTheResilientTransport: one CA's fetch is one call through
// resil's transport. A distribution point that never answers, a 403 and a
// body cut mid-transfer are all retried there, the ledger records the single
// outcome, and the retries are counted under the fetcher's service in
// resil_retries_total.
func TestFetcherRidesTheResilientTransport(t *testing.T) {
	a := NewAuthority("Flaky")
	a.Revoke(1, x509sim.SerialNumber(9), 10, KeyCompromise)
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch hits.Add(1) {
		case 1:
			<-r.Context().Done() // cut off by the attempt's own deadline
		case 2:
			http.Error(w, "automated access denied", http.StatusForbidden)
		case 3:
			conn, buf, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			buf.WriteString("HTTP/1.1 200 OK\r\nContent-Length: 4096\r\n\r\npartial")
			buf.Flush()
			conn.Close()
		default:
			_, _ = w.Write(a.Snapshot(20).Marshal())
		}
	}))
	defer srv.Close()

	retries := obs.Default().Counter("resil_retries_total", "service", "crl-fetcher")
	before := retries.Value()
	ledger := NewCoverageLedger()
	lists, err := (&Fetcher{Base: srv.URL, Ledger: ledger, Attempts: 4}).FetchAll(context.Background(), []string{"Flaky"})
	if err != nil {
		t.Fatal(err)
	}
	if l := lists["Flaky"]; l == nil || len(l.Entries) != 1 || l.Entries[0].Serial != 9 {
		t.Fatalf("lists = %v, want Flaky's one revocation", lists)
	}
	if hits.Load() != 4 {
		t.Errorf("server hits = %d, want 4: no answer, a 403, a torn body, the list", hits.Load())
	}
	if got := retries.Value() - before; got != 3 {
		t.Errorf("resil_retries_total{service=crl-fetcher} moved by %d, want 3", got)
	}
	if c := ledger.Total(); c.Attempted != 1 || c.Succeeded != 1 {
		t.Errorf("ledger = %+v, want one successful collection", c)
	}
}

// TestNewFetcherTakesTheRetryFlags: the fetcher a main builds spends
// -retry-max attempts per CRL. Against a distribution point that refuses the
// first request, -retry-max 1 leaves the CA exhausted and the flag default
// collects its list on the second attempt.
func TestNewFetcherTakesTheRetryFlags(t *testing.T) {
	a := NewAuthority("Flaky")
	a.Revoke(1, x509sim.SerialNumber(9), 10, KeyCompromise)
	for _, tc := range []struct {
		args     []string
		wantHits int64
		wantOK   bool
	}{
		{args: []string{"-retry-max", "1"}, wantHits: 1},
		{args: nil, wantHits: 2, wantOK: true},
	} {
		var hits atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if hits.Add(1) == 1 {
				http.Error(w, "automated access denied", http.StatusForbidden)
				return
			}
			_, _ = w.Write(a.Snapshot(20).Marshal())
		}))
		var rf resil.Flags
		fs := flag.NewFlagSet("staleapid", flag.ContinueOnError)
		rf.BindFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		lists, err := NewFetcher(srv.URL, &rf).FetchAll(context.Background(), []string{"Flaky"})
		srv.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := lists["Flaky"] != nil; got != tc.wantOK || hits.Load() != tc.wantHits {
			t.Errorf("%v: collected=%v after %d requests, want %v after %d", tc.args, got, hits.Load(), tc.wantOK, tc.wantHits)
		}
	}
}
