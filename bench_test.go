// Benchmarks regenerating every table and figure in the paper's evaluation,
// plus ablations for the design choices DESIGN.md calls out. The simulated
// world is built once and shared; each benchmark measures the cost of its
// pipeline/artifact over that fixed world.
package stalecert_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"stalecert"
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
	// The baseline the index replaces: scan the corpus for certificates
	// naming the e2LD.
	b.Run("linear-scan", func(b *testing.B) {
		corpus := core.NewCorpus(certs, core.CorpusOptions{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			domain := domains[i%len(domains)]
			var got []*x509sim.Certificate
			for _, cert := range corpus.Certs() {
				if slices.Contains(corpus.E2LDsOf(cert), domain) {
					got = append(got, cert)
				}
			}
			_ = got
		}
	})
}

// BenchmarkAblationMerkleProofs compares inclusion-proof generation over the
// subtree roots a built tree stored as it grew against rebuilding the tree
// for every proof, quantifying what storing the roots saves.
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
	b.Run("stored-roots", func(b *testing.B) {
		t := build()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := t.InclusionProof(uint64(i)%n, n); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuilt-tree", func(b *testing.B) {
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
