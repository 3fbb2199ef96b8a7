package ctlog

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

// submissions is n Bulk submissions with two repeats spliced in: entry 5
// again on its own day (the same leaf, which dedups) and entry 7 a day later
// (a new leaf).
func submissions(t *testing.T, n int) ([]*x509sim.Certificate, []simtime.Day) {
	t.Helper()
	mint := Bulk(100, simtime.MustParse("2023-01-01"))
	var certs []*x509sim.Certificate
	var days []simtime.Day
	for i := 0; i < n; i++ {
		c, day, err := mint(i)
		if err != nil {
			t.Fatal(err)
		}
		certs, days = append(certs, c), append(days, day)
		if i == 1500 {
			certs, days = append(certs, certs[5], certs[7]), append(days, days[5], days[7]+1)
		}
	}
	return certs, days
}

// pages is every get-entries page a client paging from 0 is served.
func pages(t *testing.T, l *Log) [][]byte {
	t.Helper()
	h := NewServer(l).Handler()
	var out [][]byte
	for start := uint64(0); start < l.Size(); start += MaxEntriesPerGet {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
			fmt.Sprintf("/ct/v1/get-entries?start=%d&end=%d", start, min(start+MaxEntriesPerGet, l.Size())-1), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("get-entries from %d: %d %s", start, rec.Code, rec.Body)
		}
		out = append(out, rec.Body.Bytes())
	}
	return out
}

// AddBatch is AddChain in index order: the same pages byte for byte and the
// same signed tree head, across workers' shares and over a repeated leaf.
func TestAddBatchMatchesAddChainInOrder(t *testing.T) {
	certs, days := submissions(t, 3100)
	one := New("batch-log", Shard{})
	for i, c := range certs {
		if _, err := one.AddChain(c, days[i]); err != nil {
			t.Fatal(err)
		}
	}
	batch := New("batch-log", Shard{})
	if err := batch.AddBatch(len(certs), func(i int) (*x509sim.Certificate, simtime.Day, error) {
		return certs[i], days[i], nil
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := batch.Size(), uint64(len(certs)-1); got != want || one.Size() != want {
		t.Fatalf("sizes %d (batch) and %d (in order), want %d: one repeat dedups", got, one.Size(), want)
	}
	if batch.STH() != one.STH() {
		t.Fatalf("STH %+v, in order %+v", batch.STH(), one.STH())
	}
	want := pages(t, one)
	for i, page := range pages(t, batch) {
		if !bytes.Equal(page, want[i]) {
			t.Fatalf("page %d differs", i)
		}
	}
}

// A failing submission stops the batch where an AddChain loop would stop:
// everything before it committed, nothing after it, and its error returned.
func TestAddBatchStopsAtTheFirstFailure(t *testing.T) {
	certs, days := submissions(t, 2100)
	const bad = 1041
	wrongShard, err := x509sim.New(999999, 1, 999999, []string{"late.example.com"}, 100, 90000)
	if err != nil {
		t.Fatal(err)
	}
	l := New("batch-log", Shard{Start: 0, End: 50000})
	err = l.AddBatch(len(certs), func(i int) (*x509sim.Certificate, simtime.Day, error) {
		if i == bad {
			return wrongShard, days[i], nil
		}
		return certs[i], days[i], nil
	})
	if !errors.Is(err, ErrWrongShard) || !strings.Contains(err.Error(), fmt.Sprint("submission ", bad)) {
		t.Fatalf("AddBatch = %v, want submission %d's ErrWrongShard", err, bad)
	}
	want := New("batch-log", Shard{Start: 0, End: 50000})
	for i := range bad {
		if _, err := want.AddChain(certs[i], days[i]); err != nil {
			t.Fatal(err)
		}
	}
	if l.STH() != want.STH() {
		t.Fatalf("after the failure STH %+v, want the first %d submissions' %+v", l.STH(), bad, want.STH())
	}
}

// A pooled HMAC state, reset between uses, signs what a fresh one signs.
func TestReusedMACSignsAsAFreshOne(t *testing.T) {
	l := New("mac-log", Shard{})
	for i := uint64(0); i < 3; i++ {
		if l.signSCT(i, 7) != New("mac-log", Shard{}).signSCT(i, 7) {
			t.Fatalf("SCT %d from a reused MAC differs from a fresh one's", i)
		}
		if sth := l.STH(); !New("mac-log", Shard{}).VerifySTH(sth) {
			t.Fatalf("STH %+v from a reused MAC does not verify", sth)
		}
	}
}

// The add-chain response is built by hand: byte for byte what json.Encoder
// writes, for a log name JSON must escape too.
func TestAddChainResponseMatchesEncoder(t *testing.T) {
	l := New(`odd "name" <&> log`, Shard{})
	srv := NewServer(l)
	sct, err := l.AddChain(testCert(t, 1, "resp.com", 0, 90), -3)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	_ = json.NewEncoder(&want).Encode(addChainResponse{
		LogName:   sct.LogName,
		Index:     sct.Index,
		Timestamp: int64(sct.Timestamp),
		Signature: base64.StdEncoding.EncodeToString(sct.Signature[:]),
	})
	if got := srv.appendSCT(nil, sct); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("appendSCT = %s\njson.Encoder = %s", got, want.Bytes())
	}
}

// add-chain reads at most maxAddChainBody bytes: a larger body is a 413 and
// submits nothing, even when it is valid JSON, while the largest certificate
// x509sim encodes (MaxNames SANs of 253 octets) still goes in.
func TestAddChainBodyIsCapped(t *testing.T) {
	l, _, client := newTestServer(t)
	ctx := context.Background()
	cert := testCert(t, 1, "padded.com", 0, 90)
	padded := `{"chain":["` + base64.StdEncoding.EncodeToString(cert.Marshal()) + `"]` +
		strings.Repeat(" ", maxAddChainBody) + `}`
	resp, err := http.Post(client.base+"/ct/v1/add-chain", "application/json", strings.NewReader(padded))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || l.Size() != 0 {
		t.Fatalf("a %d-byte body: status %d, tree size %d; want 413 and 0", len(padded), resp.StatusCode, l.Size())
	}

	names := make([]string, x509sim.MaxNames)
	for i := range names {
		label := strings.Repeat("a", 63)
		names[i] = fmt.Sprintf("%s.%s.%s.%s%03d.com", label, label, label, strings.Repeat("b", 54), i)
	}
	big, err := x509sim.New(2, 1, 2, names, 0, 90)
	if err != nil {
		t.Fatal(err)
	}
	if big.MarshaledLen() != x509sim.MaxMarshaledLen {
		t.Fatalf("largest certificate encodes to %d bytes, MaxMarshaledLen is %d", big.MarshaledLen(), x509sim.MaxMarshaledLen)
	}
	if _, err := client.AddChain(ctx, big); err != nil || l.Size() != 1 {
		t.Fatalf("largest certificate: %v, tree size %d", err, l.Size())
	}
}
