package certstore

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"stalecert/internal/ctlog"
	"stalecert/internal/shard"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

// bulkCerts is the first n certificates of ctlog.Bulk over 1 000 e2LDs, the
// shape ctlogd -seed-entries and the benchmark's bulk corpus use.
func bulkCerts(tb testing.TB, n int) []*x509sim.Certificate {
	tb.Helper()
	mint := ctlog.Bulk(1000, simtime.MustParse("2023-01-01"))
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

const benchCerts = 60000

// BenchmarkStoreAppend writes the benchmark's bulk corpus into a fresh store,
// fsync included: as one batch, and in the 4 096-entry batches Sync appends.
func BenchmarkStoreAppend(b *testing.B) {
	certs := bulkCerts(b, benchCerts)
	for _, batch := range []int{benchCerts, 4096} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := Open(Options{Dir: b.TempDir()})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for at := 0; at < len(certs); at += batch {
					if _, err := s.Append(certs[at:min(at+batch, len(certs))]); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if s.Len() != len(certs) {
					b.Fatalf("store holds %d certificates, want %d", s.Len(), len(certs))
				}
				s.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkIngestSync is one replica's whole catch-up on the bulk corpus:
// get-entries over loopback, decode, Append, checkpoint, into a fresh store,
// unsharded and as slice 0 of 2 (which fetches every entry and keeps about
// half).
func BenchmarkIngestSync(b *testing.B) {
	log := ctlog.New("bench-log", ctlog.Shard{})
	if err := log.AddBatch(benchCerts, ctlog.Bulk(1000, simtime.MustParse("2023-01-01"))); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(ctlog.NewServer(log).Handler())
	defer ts.Close()
	client := ctlog.NewClient(ts.URL, nil)
	ctx := context.Background()
	for _, bc := range []struct {
		name  string
		slice *shard.Assignment
	}{{"unsharded", nil}, {"slice=0of2", &shard.Assignment{Index: 0, Count: 2}}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := Open(Options{Dir: b.TempDir(), Slice: bc.slice})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				added, err := NewIngester(s, client).Sync(ctx)
				if err != nil || added == 0 || bc.slice == nil && added != benchCerts {
					b.Fatalf("Sync = %d, %v", added, err)
				}
				b.StopTimer()
				s.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkLookup is the index read a staleness or certificate miss starts
// with (certstore.by_e2ld_ns, certstore.by_fingerprint_ns), over a store
// shaped like the benchmark rig's: 1 000 e2LDs of five certificates each.
// parallel runs both reads from every P against the per-shard read locks.
func BenchmarkLookup(b *testing.B) {
	s, names, fps := lookupStore(b)
	const domains, perDomain = lookupDomains, lookupPerDomain

	b.Run("e2ld", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(s.ByE2LD(names[i%domains])) != perDomain {
				b.Fatal("missing domain")
			}
		}
	})
	b.Run("fingerprint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := s.ByFingerprint(fps[i%len(fps)]); !ok {
				b.Fatal("missing fingerprint")
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for i := 0; pb.Next(); i++ {
				if len(s.ByE2LD(names[i%domains])) != perDomain {
					b.Error("missing domain")
					return
				}
				if _, ok := s.ByFingerprint(fps[i%len(fps)]); !ok {
					b.Error("missing fingerprint")
					return
				}
			}
		})
	})
}

const lookupDomains, lookupPerDomain = 1000, 5

// lookupStore is BenchmarkLookup's store: lookupDomains e2LDs of
// lookupPerDomain certificates each, with the names and fingerprints.
func lookupStore(tb testing.TB) (*Store, []string, []x509sim.Fingerprint) {
	tb.Helper()
	s, err := Open(Options{Dir: tb.TempDir()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	certs := make([]*x509sim.Certificate, 0, lookupDomains*lookupPerDomain)
	names := make([]string, lookupDomains)
	for i := range names {
		names[i] = fmt.Sprintf("rig%05d.com", i)
		for k := 0; k < lookupPerDomain; k++ {
			serial := len(certs) + 1
			c, err := x509sim.New(x509sim.SerialNumber(serial), 1, x509sim.KeyID(serial),
				[]string{names[i], "www." + names[i]}, 100, 900)
			if err != nil {
				tb.Fatal(err)
			}
			certs = append(certs, c)
		}
	}
	if _, err := s.Append(certs); err != nil {
		tb.Fatal(err)
	}
	fps := make([]x509sim.Fingerprint, len(certs))
	for i, c := range certs {
		fps[i] = c.Fingerprint()
	}
	return s, names, fps
}

// TestLookupAllocCeilings caps BenchmarkLookup's two reads one above what
// they cost today, with or without -race: by e2LD the one defensive copy it
// returns, by fingerprint nothing, so there the ceiling is 0.
func TestLookupAllocCeilings(t *testing.T) {
	s, names, fps := lookupStore(t)
	if got := testing.AllocsPerRun(1000, func() { s.ByE2LD(names[7]) }); got > 2 {
		t.Errorf("ByE2LD allocates %.0f times, ceiling 2", got)
	}
	if got := testing.AllocsPerRun(1000, func() { s.ByFingerprint(fps[7]) }); got > 0 {
		t.Errorf("ByFingerprint allocates %.0f times, ceiling 0", got)
	}
}
