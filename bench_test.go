// Benchmarks regenerating every table and figure in the paper's evaluation,
// plus ablations for the design choices DESIGN.md calls out. The simulated
// world is built once and shared; each benchmark measures the cost of its
// pipeline/artifact over that fixed world.
package stalecert_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"stalecert"
	"stalecert/internal/certstore"
	"stalecert/internal/core"
	"stalecert/internal/ctlog"
	"stalecert/internal/merkle"
	"stalecert/internal/simtime"
	"stalecert/internal/worldsim"
	"stalecert/internal/x509sim"
)

var (
	benchOnce    sync.Once
	benchResults *stalecert.Results
)

func benchRun(b *testing.B) *stalecert.Results {
	b.Helper()
	benchOnce.Do(func() {
		s, _ := worldsim.ScenarioFor("test")
		benchResults = stalecert.Run(s)
	})
	return benchResults
}

// Table 3: dataset inventory.
func BenchmarkTable3Datasets(b *testing.B) {
	r := benchRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := r.Table3(); len(tbl.Rows) != 4 {
			b.Fatal("table 3 wrong")
		}
	}
}

// Table 4: the full detection pipeline (corpus build + all three joins).
func BenchmarkTable4DetectionPipeline(b *testing.B) {
	r := benchRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := stalecert.Detect(r.World)
		if len(res.Table4Rows()) != 4 {
			b.Fatal("pipeline wrong")
		}
	}
}

// Table 5: reputation sampling + temporal join.
func BenchmarkTable5Reputation(b *testing.B) {
	r := benchRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, analysis := r.Table5(int64(i), 100_000, 0.01); analysis.Sampled == 0 {
			b.Fatal("no sample")
		}
	}
}

// Table 6: popularity bucketing over biannual rank samples.
func BenchmarkTable6Popularity(b *testing.B) {
	r := benchRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := r.Table6(int64(i)); len(tbl.Rows) == 0 {
			b.Fatal("empty table 6")
		}
	}
}

// Table 7: CRL coverage ledger.
func BenchmarkTable7CRLCoverage(b *testing.B) {
	r := benchRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := r.Table7(); len(tbl.Rows) == 0 {
			b.Fatal("empty table 7")
		}
	}
}

// Figure 4: monthly key-compromise volumes by CA.
func BenchmarkFigure4KeyCompromiseMonthly(b *testing.B) {
	r := benchRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fig := r.Figure4(); len(fig.Rows) == 0 {
			b.Fatal("empty figure 4")
		}
	}
}

// Figure 5a: monthly registrant-change stale certificates.
func BenchmarkFigure5aMonthlyStale(b *testing.B) {
	r := benchRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fig := r.Figure5a(); len(fig.Rows) == 0 {
			b.Fatal("empty figure 5a")
		}
	}
}

// Figure 5b: issuer breakdown of the registrant-change spike.
func BenchmarkFigure5bIssuerBreakdown(b *testing.B) {
	r := benchRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fig := r.Figure5b(); len(fig.Columns) < 2 {
			b.Fatal("figure 5b wrong")
		}
	}
}

// Figure 6: staleness CDFs for all three methods.
func BenchmarkFigure6StalenessCDF(b *testing.B) {
	r := benchRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := r.Figure6(); len(s.Names) != 3 {
			b.Fatal("figure 6 wrong")
		}
	}
}

// Figure 7: per-year staleness CDFs.
func BenchmarkFigure7YearlyCDF(b *testing.B) {
	r := benchRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := r.Figure7(); len(s.Names) == 0 {
			b.Fatal("figure 7 wrong")
		}
	}
}

// Figure 8: survival analysis.
func BenchmarkFigure8Survival(b *testing.B) {
	r := benchRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at90 := r.Figure8At(90)
		if len(at90) != 3 {
			b.Fatal("figure 8 wrong")
		}
	}
}

// Figure 9: lifetime-cap simulation across methods and caps.
func BenchmarkFigure9LifetimeCaps(b *testing.B) {
	r := benchRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := r.Figure9(nil); len(rows) != 12 {
			b.Fatal("figure 9 wrong")
		}
	}
}

// Headline: the §6 90-day-cap estimate.
func BenchmarkHeadline90DayCap(b *testing.B) {
	r := benchRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := r.Headline()
		if h.OverallDayReductionPct <= 0 {
			b.Fatal("headline wrong")
		}
	}
}

// Ablations.

// BenchmarkAblationDedup compares CT deduplication by full-body fingerprint
// (catches precert/final pairs and cross-log copies) against the cheaper
// (issuer, serial) key (misses nothing in our serial-disciplined simulator
// but is not sound for real CT data).
func BenchmarkAblationDedup(b *testing.B) {
	r := benchRun(b)
	entries := allEntries(b, r.World.Logs)
	b.Run("fingerprint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seen := make(map[x509sim.Fingerprint]bool, len(entries))
			kept := 0
			for _, e := range entries {
				fp := e.Cert.Fingerprint()
				if !seen[fp] {
					seen[fp] = true
					kept++
				}
			}
			if kept == 0 {
				b.Fatal("no entries")
			}
		}
	})
	b.Run("issuer-serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seen := make(map[x509sim.DedupKey]bool, len(entries))
			kept := 0
			for _, e := range entries {
				k := e.Cert.DedupKey()
				if !seen[k] {
					seen[k] = true
					kept++
				}
			}
			if kept == 0 {
				b.Fatal("no entries")
			}
		}
	})
}

func allEntries(b *testing.B, col *ctlog.Collection) []ctlog.Entry {
	b.Helper()
	var out []ctlog.Entry
	for _, l := range col.Logs() {
		if l.Size() == 0 {
			continue
		}
		es, err := l.Entries(0, l.Size()-1)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, es...)
	}
	return out
}

// BenchmarkAblationDomainIndex compares e2LD lookups with the inverted index
// against linear corpus scans.
func BenchmarkAblationDomainIndex(b *testing.B) {
	r := benchRun(b)
	certs := r.Corpus.Certs()
	domains := r.World.AllDomains()
	if len(domains) > 200 {
		domains = domains[:200]
	}
	b.Run("indexed", func(b *testing.B) {
		corpus := core.NewCorpus(certs, core.CorpusOptions{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := corpus.ByE2LD(domains[i%len(domains)]); got == nil {
				_ = got
			}
		}
	})
	b.Run("linear-scan", func(b *testing.B) {
		corpus := core.NewCorpus(certs, core.CorpusOptions{NoIndex: true})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := corpus.ByE2LD(domains[i%len(domains)]); got == nil {
				_ = got
			}
		}
	})
}

// Certstore benchmark fixture: a 100K-certificate store built once and
// shared. Domains are distinct e2LDs so a lookup's working set is small and
// the index/scan contrast is pure lookup cost.
var (
	csBenchOnce    sync.Once
	csBenchStore   *certstore.Store
	csBenchDomains []string
	csBenchFPs     []x509sim.Fingerprint
	csBenchErr     error
)

func certstoreBench(b *testing.B) (*certstore.Store, []string, []x509sim.Fingerprint) {
	b.Helper()
	csBenchOnce.Do(func() {
		dir, err := os.MkdirTemp("", "certstore-bench-*")
		if err != nil {
			csBenchErr = err
			return
		}
		s, err := certstore.Open(certstore.Options{Dir: dir})
		if err != nil {
			csBenchErr = err
			return
		}
		const n = 100_000
		batch := make([]*x509sim.Certificate, 0, 1024)
		for i := 0; i < n; i++ {
			domain := fmt.Sprintf("d%06d.com", i)
			c, err := x509sim.New(
				x509sim.SerialNumber(i+1), x509sim.IssuerID(i%7+1), x509sim.KeyID(i+1),
				[]string{domain, "www." + domain}, 100, 900)
			if err != nil {
				csBenchErr = err
				return
			}
			batch = append(batch, c)
			if i%157 == 0 {
				csBenchDomains = append(csBenchDomains, domain)
				csBenchFPs = append(csBenchFPs, c.Fingerprint())
			}
			if len(batch) == cap(batch) {
				if _, err := s.Append(batch); err != nil {
					csBenchErr = err
					return
				}
				batch = batch[:0]
			}
		}
		if _, err := s.Append(batch); err != nil {
			csBenchErr = err
			return
		}
		csBenchStore = s
	})
	if csBenchErr != nil {
		b.Fatal(csBenchErr)
	}
	return csBenchStore, csBenchDomains, csBenchFPs
}

// BenchmarkCertstoreLookup is the subsystem's acceptance benchmark: sharded
// index lookups against a 100K-cert store versus a linear corpus scan, plus
// parallel readers exercising the per-shard read locks.
func BenchmarkCertstoreLookup(b *testing.B) {
	store, domains, fps := certstoreBench(b)

	b.Run("sharded-e2ld", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := store.ByE2LD(domains[i%len(domains)]); len(got) == 0 {
				b.Fatal("missing domain")
			}
		}
	})
	b.Run("sharded-fingerprint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := store.ByFingerprint(fps[i%len(fps)]); !ok {
				b.Fatal("missing fingerprint")
			}
		}
	})
	b.Run("linear-scan", func(b *testing.B) {
		corpus := core.NewCorpus(store.Certs(), core.CorpusOptions{NoIndex: true})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := corpus.ByE2LD(domains[i%len(domains)]); len(got) == 0 {
				b.Fatal("missing domain")
			}
		}
	})
	b.Run("parallel-readers", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if got := store.ByE2LD(domains[i%len(domains)]); len(got) == 0 {
					b.Fatal("missing domain")
				}
				if _, ok := store.ByFingerprint(fps[i%len(fps)]); !ok {
					b.Fatal("missing fingerprint")
				}
				i++
			}
		})
	})
}

// BenchmarkAblationMerkleProofs compares inclusion-proof generation on a
// warm tree (aligned perfect-subtree roots cached across proofs) against a
// cold tree rebuilt per batch, quantifying the proof cache.
func BenchmarkAblationMerkleProofs(b *testing.B) {
	const n = 4096
	leaves := make([][]byte, n)
	for i := range leaves {
		leaves[i] = []byte(fmt.Sprintf("leaf-%d", i))
	}
	build := func() *merkle.Tree {
		t := &merkle.Tree{}
		for _, l := range leaves {
			t.AppendData(l)
		}
		return t
	}
	b.Run("warm-cache", func(b *testing.B) {
		t := build()
		// Prime the cache.
		if _, err := t.InclusionProof(0, n); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := t.InclusionProof(uint64(i)%n, n); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold-tree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := build()
			if _, err := t.InclusionProof(uint64(i)%n, n); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWorldSimulation measures raw simulation throughput (days/op over
// a one-year horizon at bench scale).
func BenchmarkWorldSimulation(b *testing.B) {
	s, _ := worldsim.ScenarioFor("test")
	s.End = s.Start + 365
	s.WHOISWindow = simtime.Span{Start: s.Start, End: s.End}
	s.ADNSWindow = simtime.Span{Start: s.End - 30, End: s.End}
	s.CRLWindow = simtime.Span{Start: s.End - 30, End: s.End}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Seed = int64(i + 1)
		w := worldsim.NewWorld(s)
		w.Run()
		if w.DomainCount() == 0 {
			b.Fatal("no domains")
		}
	}
}
