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

// fetchCounts runs fn and returns, per CA, how many collections it ended in
// each outcome as counted by crl_fetch_total: [ok, retry_exhausted,
// canceled]. Each test names its CAs uniquely, as the counters are global.
func fetchCounts(cas []string, fn func()) map[string][3]uint64 {
	read := func(ca string) (n [3]uint64) {
		for o := range n {
			n[o] = fetchOutcomeCounter(ca, Outcome(o)).Value()
		}
		return n
	}
	before := make(map[string][3]uint64, len(cas))
	for _, ca := range cas {
		before[ca] = read(ca)
	}
	fn()
	got := make(map[string][3]uint64, len(cas))
	for _, ca := range cas {
		after := read(ca)
		for o := range after {
			after[o] -= before[ca][o]
		}
		got[ca] = after
	}
	return got
}

// TestLedgerDistinguishesExhaustedFromNeverAttempted: a CA whose retries are
// cut off by cancellation is counted once as canceled, while a CA the run
// never reached is not counted at all, so "never attempted" stays
// distinguishable from both "retries exhausted" and "canceled".
func TestLedgerDistinguishesExhaustedFromNeverAttempted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Every request for the first CA is blocked; cancel the run while its
		// retries are in flight so the second is never attempted.
		if calls.Add(1) == 2 {
			cancel()
		}
		http.Error(w, "automated access denied", http.StatusForbidden)
	}))
	defer srv.Close()

	f := &Fetcher{Base: srv.URL, Attempts: 4}
	var err error
	got := fetchCounts([]string{"cancel-alpha", "cancel-beta"}, func() {
		_, err = f.FetchAll(ctx, []string{"cancel-alpha", "cancel-beta"})
	})
	if err == nil {
		t.Fatal("expected context cancellation error")
	}
	if got["cancel-alpha"] != [3]uint64{0, 0, 1} {
		t.Errorf("in-flight CA counted %v, want one canceled collection", got["cancel-alpha"])
	}
	if got["cancel-beta"] != [3]uint64{} {
		t.Errorf("never-attempted CA counted %v, want nothing", got["cancel-beta"])
	}
}

// TestLedgerRecordsRetryExhausted checks the uncancelled failure path: all
// retries fail, the CA is counted as exhausted, and the fetch moves on.
func TestLedgerRecordsRetryExhausted(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/crl/exhaust-good" {
			a := NewAuthority("exhaust-good")
			a.Revoke(1, x509sim.SerialNumber(1), 10, KeyCompromise)
			w.Header().Set("Content-Type", "application/pkix-crl")
			_, _ = w.Write(a.Snapshot(20).Marshal())
			return
		}
		http.Error(w, "automated access denied", http.StatusForbidden)
	}))
	defer srv.Close()

	f := &Fetcher{Base: srv.URL, Attempts: 3}
	names := []string{"exhaust-blocked", "exhaust-good"}
	var lists map[string]*List
	var err error
	got := fetchCounts(names, func() { lists, err = f.FetchAll(context.Background(), names) })
	if err != nil {
		t.Fatalf("FetchAll: %v", err)
	}
	if len(lists) != 1 || lists["exhaust-good"] == nil {
		t.Fatalf("lists = %v, want only exhaust-good", lists)
	}
	if got["exhaust-blocked"] != [3]uint64{0, 1, 0} {
		t.Errorf("blocked CA counted %v, want one exhausted collection", got["exhaust-blocked"])
	}
	if got["exhaust-good"] != [3]uint64{1, 0, 0} {
		t.Errorf("good CA counted %v, want one successful collection", got["exhaust-good"])
	}
}

// TestFetcherRidesTheResilientTransport: one CA's fetch is one call through
// resil's transport. A distribution point that never answers, a 403 and a
// body cut mid-transfer are all retried there, crl_fetch_total counts the
// single outcome, and the retries are counted under the fetcher's service in
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
	var lists map[string]*List
	var err error
	got := fetchCounts([]string{"transport-flaky"}, func() {
		lists, err = (&Fetcher{Base: srv.URL, Attempts: 4}).FetchAll(context.Background(), []string{"transport-flaky"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if l := lists["transport-flaky"]; l == nil || len(l.Entries) != 1 || l.Entries[0].Serial != 9 {
		t.Fatalf("lists = %v, want Flaky's one revocation", lists)
	}
	if hits.Load() != 4 {
		t.Errorf("server hits = %d, want 4: no answer, a 403, a torn body, the list", hits.Load())
	}
	if got := retries.Value() - before; got != 3 {
		t.Errorf("resil_retries_total{service=crl-fetcher} moved by %d, want 3", got)
	}
	if got["transport-flaky"] != [3]uint64{1, 0, 0} {
		t.Errorf("crl_fetch_total counted %v, want one successful collection", got["transport-flaky"])
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
