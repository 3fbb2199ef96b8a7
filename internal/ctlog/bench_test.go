package ctlog

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

// bulkCerts is n certificates in the shape ctlogd -seed-entries and the
// benchmark's bulk corpus use: one SAN under one of 1 000 e2LDs.
func bulkCerts(tb testing.TB, n int) []*x509sim.Certificate {
	tb.Helper()
	now := simtime.MustParse("2023-01-01")
	certs := make([]*x509sim.Certificate, n)
	for i := range certs {
		c, err := x509sim.New(x509sim.SerialNumber(i+1), 1, x509sim.KeyID(i+1),
			[]string{fmt.Sprintf("seed%06d.example-%03d.com", i, i%1000)}, now-30, now+60)
		if err != nil {
			tb.Fatal(err)
		}
		certs[i] = c
	}
	return certs
}

// bulkLog is a log of n bulkCerts.
func bulkLog(tb testing.TB, n int) *Log {
	tb.Helper()
	now := simtime.MustParse("2023-01-01")
	l := New("bench-log", Shard{})
	for i, c := range bulkCerts(tb, n) {
		if _, err := l.AddChain(c, now-simtime.Day(i%30)); err != nil {
			tb.Fatal(err)
		}
	}
	return l
}

// servedPage is the body the handler answers a full first page with.
func servedPage(tb testing.TB, l *Log) []byte {
	tb.Helper()
	rec := httptest.NewRecorder()
	NewServer(l).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		fmt.Sprintf("/ct/v1/get-entries?start=0&end=%d", MaxEntriesPerGet-1), nil))
	if rec.Code != http.StatusOK {
		tb.Fatalf("get-entries: status %d: %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// pageTransport answers every round trip with one page from memory, declared
// with its length as a server that knows it does.
type pageTransport struct{ page []byte }

func (p pageTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK, Status: "200 OK",
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(bytes.NewReader(p.page)),
		ContentLength: int64(len(p.page)),
		Request:       req,
	}, nil
}

// BenchmarkGetEntriesHandler is ctlogd's share of one ingested page: a full
// 256-entry get-entries page served into a ResponseRecorder.
func BenchmarkGetEntriesHandler(b *testing.B) {
	h := NewServer(bulkLog(b, 2*MaxEntriesPerGet)).Handler()
	req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/ct/v1/get-entries?start=0&end=%d", MaxEntriesPerGet-1), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkGetEntriesDecode is the client's share: that page's bytes, handed
// over by a transport that has them in memory, to []Entry through
// Client.GetEntries (the client stack's fixed cost, ~40 allocations, rides
// along on both sides of a comparison).
func BenchmarkGetEntriesDecode(b *testing.B) {
	page := servedPage(b, bulkLog(b, MaxEntriesPerGet))
	c := NewClient("http://log.test", &http.Client{Transport: pageTransport{page}})
	ctx := context.Background()
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := c.GetEntries(ctx, 0, MaxEntriesPerGet-1)
		if err != nil || len(got) != MaxEntriesPerGet {
			b.Fatalf("GetEntries = %d entries, %v", len(got), err)
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so AllocsPerRun
// counts the handler and not a recorder's buffer.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// Allocation ceilings for the two per-page ingest hops, a little above what
// they cost today (the body, two header values and the query parse on the
// serving side; certificate, SAN slice and one string per SAN on the
// decoding side): a change that brings back a per-entry clone, marshal,
// string or reflected field fails here before it shows as a slower catch-up.
func TestIngestAllocCeilings(t *testing.T) {
	l := bulkLog(t, MaxEntriesPerGet)
	h := NewServer(l).Handler()
	w := &discardWriter{h: http.Header{}}
	req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/ct/v1/get-entries?start=0&end=%d", MaxEntriesPerGet-1), nil)
	if got := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) }); got > 30 {
		t.Errorf("one served get-entries page allocates %.0f times, ceiling 30", got)
	}

	page := servedPage(t, l)
	if got := testing.AllocsPerRun(200, func() {
		if entries, err := decodeEntries(page, 0); err != nil || len(entries) != MaxEntriesPerGet {
			t.Fatalf("decodeEntries = %d entries, %v", len(entries), err)
		}
	}) / MaxEntriesPerGet; got > 4 {
		t.Errorf("one decoded entry allocates %.2f times, ceiling 4", got)
	}
}

// BenchmarkAddChain is Log.AddChain of a certificate the log has not seen
// (ctlog.add_chain_us): leaf encoding, the decode check, the leaf hash, the
// tree append and the SCT. Each pass over 4 096 bulkCerts is submitted a day
// later, so every submission is a new leaf; the log starts afresh every
// 65 536 entries.
func BenchmarkAddChain(b *testing.B) {
	certs := bulkCerts(b, 4096)
	now := simtime.MustParse("2023-01-01")
	var l *Log
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%65536 == 0 {
			b.StopTimer()
			l = New("bench-log", Shard{})
			b.StartTimer()
		}
		if _, err := l.AddChain(certs[i%len(certs)], now+simtime.Day(i%65536/len(certs))); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAddChainAllocCeiling caps BenchmarkAddChain one above what a new leaf
// costs today (12).
func TestAddChainAllocCeiling(t *testing.T) {
	certs := bulkCerts(t, 4096)
	now := simtime.MustParse("2023-01-01")
	l, i := New("bench-log", Shard{}), 0
	if got := testing.AllocsPerRun(2000, func() {
		if _, err := l.AddChain(certs[i%len(certs)], now+simtime.Day(i/len(certs))); err != nil {
			t.Fatal(err)
		}
		i++
	}); got > 13 {
		t.Errorf("one new leaf allocates %.0f times, ceiling 13", got)
	}
}
