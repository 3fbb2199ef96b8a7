package dnssim

import (
	"context"
	"testing"
	"time"
)

// benchResolver is a Resolver asking an in-process Server over loopback UDP.
func benchResolver(tb testing.TB) *Resolver {
	tb.Helper()
	srv := NewServer(testStore(tb))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = srv.Close() })
	return &Resolver{ServerAddr: addr.String(), Timeout: time.Second}
}

// resolveApexNS is the delegation check's first question, answered by the
// provider's name server.
func resolveApexNS(tb testing.TB, r *Resolver) {
	recs, err := r.Query(context.Background(), "onlyns.com", TypeNS)
	if err != nil || len(recs) != 1 {
		tb.Fatalf("Query = %v, %v", recs, err)
	}
}

// BenchmarkResolverQuery is one question to the authoritative server
// (dnssim.query_us): a datagram socket dialled, the query written, the reply
// read and checked, on both ends of loopback UDP.
func BenchmarkResolverQuery(b *testing.B) {
	r := benchResolver(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resolveApexNS(b, r)
	}
}

// TestResolverQueryAllocCeiling caps BenchmarkResolverQuery, client and
// server together, one above what a question costs today (33).
func TestResolverQueryAllocCeiling(t *testing.T) {
	r := benchResolver(t)
	if got := testing.AllocsPerRun(200, func() { resolveApexNS(t, r) }); got > 34 {
		t.Errorf("one question allocates %.0f times, ceiling 34", got)
	}
}
