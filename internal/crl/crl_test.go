package crl

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"testing/quick"

	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

func TestReasonStrings(t *testing.T) {
	if KeyCompromise.String() != "keyCompromise" {
		t.Fatal(KeyCompromise.String())
	}
	if Reason(7).String() != "reason(7)" {
		t.Fatal(Reason(7).String())
	}
}

func TestListMarshalRoundTrip(t *testing.T) {
	l := &List{
		CAName:     "Sectigo",
		Number:     42,
		ThisUpdate: 3600,
		NextUpdate: 3607,
		Entries: []Entry{
			{Issuer: 1, Serial: 100, RevokedAt: 3500, Reason: KeyCompromise},
			{Issuer: 2, Serial: 200, RevokedAt: 3550, Reason: Superseded},
		},
	}
	got, err := Unmarshal(l.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, l)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	l := &List{CAName: "X", Entries: []Entry{{Serial: 1}}}
	enc := l.Marshal()
	if _, err := Unmarshal(enc[:len(enc)-2]); err != ErrTruncated {
		t.Errorf("truncated: %v", err)
	}
	if _, err := Unmarshal(append(enc, 0)); err != ErrTrailing {
		t.Errorf("trailing: %v", err)
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 0
	if _, err := Unmarshal(bad); err != ErrBadMagic {
		t.Errorf("magic: %v", err)
	}
	if _, err := Unmarshal(nil); err != ErrTruncated {
		t.Errorf("nil: %v", err)
	}
}

func TestAuthorityRevokeAndSnapshot(t *testing.T) {
	a := NewAuthority("DigiCert")
	a.Revoke(1, 10, 100, KeyCompromise)
	a.Revoke(1, 11, 200, Superseded)
	a.Revoke(1, 10, 150, Unspecified) // duplicate: earliest wins
	e, ok := a.IsRevoked(x509sim.DedupKey{Issuer: 1, Serial: 10})
	if !ok || e.RevokedAt != 100 || e.Reason != KeyCompromise {
		t.Fatalf("entry = %+v ok=%v", e, ok)
	}
	// Snapshot at day 150 excludes the day-200 revocation.
	l := a.Snapshot(150)
	if len(l.Entries) != 1 || l.Entries[0].Serial != 10 {
		t.Fatalf("snapshot = %+v", l.Entries)
	}
	if l.Number != 1 {
		t.Fatalf("crl number = %d", l.Number)
	}
	// The duplicate of serial 10 is not a third entry.
	l2 := a.Snapshot(300)
	if len(l2.Entries) != 2 || l2.Number != 2 {
		t.Fatalf("snapshot2 = %+v n=%d", l2.Entries, l2.Number)
	}
	if l2.NextUpdate != 307 {
		t.Fatalf("nextUpdate = %v", l2.NextUpdate)
	}
}

func TestSnapshotSorted(t *testing.T) {
	a := NewAuthority("X")
	a.Revoke(2, 5, 0, Unspecified)
	a.Revoke(1, 9, 0, Unspecified)
	a.Revoke(1, 3, 0, Unspecified)
	l := a.Snapshot(10)
	want := []x509sim.SerialNumber{3, 9, 5}
	for i, e := range l.Entries {
		if e.Serial != want[i] {
			t.Fatalf("order = %+v", l.Entries)
		}
	}
}

func TestServerFetcherEndToEnd(t *testing.T) {
	srv := NewServer(1)
	reliable := NewAuthority("e2e-Reliable")
	reliable.Revoke(1, 100, 50, KeyCompromise)
	blocked := NewAuthority("e2e-Blocked")
	blocked.Revoke(2, 200, 60, Superseded)
	srv.Host(reliable, 0)
	srv.Host(blocked, 1.0) // always refuses: scrape protection
	srv.SetNow(70)

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	f := &Fetcher{Base: ts.URL}
	var got map[string]*List
	var err error
	counts := fetchCounts(srv.Names(), func() { got, err = f.FetchAll(context.Background(), srv.Names()) })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("fetched %d CRLs", len(got))
	}
	l := got["e2e-Reliable"]
	if l == nil || len(l.Entries) != 1 || l.Entries[0].Reason != KeyCompromise {
		t.Fatalf("reliable CRL = %+v", l)
	}
	if l.ThisUpdate != 70 {
		t.Fatalf("thisUpdate = %v", l.ThisUpdate)
	}
	if counts["e2e-Blocked"] != [3]uint64{0, 1, 0} || counts["e2e-Reliable"] != [3]uint64{1, 0, 0} {
		t.Fatalf("crl_fetch_total counted %v, want Blocked exhausted and Reliable ok", counts)
	}
}

func TestFetcherRetriesTransientFailures(t *testing.T) {
	srv := NewServer(7)
	flaky := NewAuthority("retry-flaky")
	flaky.Revoke(1, 1, 0, Unspecified)
	srv.Host(flaky, 0.5)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	f := &Fetcher{Base: ts.URL, Attempts: 11}
	// With 10 retries at 50% fail rate, collection succeeds essentially always.
	counts := fetchCounts([]string{"retry-flaky"}, func() {
		for day := 0; day < 20; day++ {
			if _, err := f.FetchAll(context.Background(), []string{"retry-flaky"}); err != nil {
				t.Fatal(err)
			}
		}
	})
	if c := counts["retry-flaky"]; c[0]+c[1]+c[2] != 20 || c[0] < 19 {
		t.Fatalf("crl_fetch_total counted %v over 20 collections", c)
	}
}

func TestFetcherUnknownCA(t *testing.T) {
	srv := NewServer(1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	f := &Fetcher{Base: ts.URL}
	var got map[string]*List
	var err error
	counts := fetchCounts([]string{"unknown-nope"}, func() {
		got, err = f.FetchAll(context.Background(), []string{"unknown-nope"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("unknown CA returned a CRL")
	}
	if counts["unknown-nope"] != [3]uint64{0, 1, 0} {
		t.Fatalf("failure counted %v, want one exhausted collection", counts["unknown-nope"])
	}
}

func TestQuickListRoundTrip(t *testing.T) {
	f := func(name string, number uint64, n uint8, serialBase uint64) bool {
		if len(name) > 255 {
			name = name[:255]
		}
		l := &List{CAName: name, Number: number, ThisUpdate: 5, NextUpdate: 12}
		for i := 0; i < int(n)%20; i++ {
			l.Entries = append(l.Entries, Entry{
				Issuer:    x509sim.IssuerID(i),
				Serial:    x509sim.SerialNumber(serialBase + uint64(i)),
				RevokedAt: simtime.Day(i * 3),
				Reason:    Reason(i % 11),
			})
		}
		got, err := Unmarshal(l.Marshal())
		if err != nil {
			return false
		}
		if len(l.Entries) == 0 {
			return got.CAName == l.CAName && len(got.Entries) == 0
		}
		return reflect.DeepEqual(l, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCoveragePercentEmpty(t *testing.T) {
	if (Coverage{}).Percent() != 100 {
		t.Fatal("empty coverage should be 100%")
	}
}
