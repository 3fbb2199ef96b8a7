package ctlog

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"stalecert/internal/core"
	"stalecert/internal/psl"
	"stalecert/internal/shard"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

// bulkCerts is the first n certificates of Bulk over 1 000 e2LDs, the shape
// ctlogd -seed-entries and the benchmark's bulk corpus use.
func bulkCerts(tb testing.TB, n int) []*x509sim.Certificate {
	tb.Helper()
	mint := Bulk(1000, simtime.MustParse("2023-01-01"))
	certs := make([]*x509sim.Certificate, n)
	for i := range certs {
		c, _, err := mint(i)
		if err != nil {
			tb.Fatal(err)
		}
		certs[i] = c
	}
	return certs
}

// bulkLog is a log of the first n Bulk submissions.
func bulkLog(tb testing.TB, n int) *Log {
	tb.Helper()
	l := New("bench-log", Shard{})
	if err := l.AddBatch(n, Bulk(1000, simtime.MustParse("2023-01-01"))); err != nil {
		tb.Fatal(err)
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

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// Allocation ceilings for the two per-page ingest hops, a little above what
// they cost today (the body, two header values and the query parse on the
// serving side; certificate, SAN slice and one string per SAN on the
// decoding side): a change that brings back a per-entry clone, marshal,
// string or reflected field fails here before it shows as a slower catch-up.
// Two more rows hold what a seed and a sharded catch-up pay per entry at
// what they cost today: an SCT nothing (a pooled HMAC), the slice's keep
// decision over a single-SAN certificate one allocation (its e2LD slice);
// the SCT row only without -race.
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

	if got := testing.AllocsPerRun(1000, func() { l.signSCT(7, 3) }); got != 0 && !raceEnabled {
		t.Errorf("minting an SCT allocates %.0f times, ceiling 0", got)
	}

	certs := bulkCerts(t, MaxEntriesPerGet)
	fps := make([]x509sim.Fingerprint, len(certs))
	for i, c := range certs {
		fps[i] = c.Fingerprint()
	}
	ring, list := shard.MustRing(2, shard.DefaultVNodes), psl.Default()
	if got := testing.AllocsPerRun(200, func() {
		for i, c := range certs {
			shard.Keeps(ring, 0, core.CertE2LDs(list, c), fps[i])
		}
	}) / float64(len(certs)); got > 1 {
		t.Errorf("one keep decision allocates %.2f times, ceiling 1", got)
	}
}

// BenchmarkSeed is ctlogd -seed-entries 60000 -seed-domains 10000 before it
// listens: AddBatch of 60 000 Bulk submissions into a fresh log, minted and
// prepared on GOMAXPROCS goroutines (state -cpu).
func BenchmarkSeed(b *testing.B) {
	mint := Bulk(10000, simtime.MustParse("2023-01-01"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := New("bench-log", Shard{}).AddBatch(60000, mint); err != nil {
			b.Fatal(err)
		}
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
// costs today (4: the leaf, the decoded certificate and its SAN slice and
// string); under -race a dropped HMAC state is rebuilt now and then, so
// there the cap is the 13 it was before the state was pooled.
func TestAddChainAllocCeiling(t *testing.T) {
	certs := bulkCerts(t, 4096)
	now := simtime.MustParse("2023-01-01")
	l, i := New("bench-log", Shard{}), 0
	ceiling := 5.0
	if raceEnabled {
		ceiling = 13
	}
	if got := testing.AllocsPerRun(2000, func() {
		if _, err := l.AddChain(certs[i%len(certs)], now+simtime.Day(i/len(certs))); err != nil {
			t.Fatal(err)
		}
		i++
	}); got > ceiling {
		t.Errorf("one new leaf allocates %.0f times, ceiling %.0f", got, ceiling)
	}
}
