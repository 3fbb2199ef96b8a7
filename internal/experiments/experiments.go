// Package experiments regenerates every table and figure from the paper's
// evaluation over a simulated world: it runs the full pipeline (world →
// datasets → corpus → detectors), formats each artifact via internal/report
// and writes the JSON report. cmd/experiments is flag parsing around this
// package; testdata holds its -all output, which TestAllGolden pins.
package experiments

import (
	"math/rand"
	"time"

	"stalecert/internal/core"
	"stalecert/internal/monitor"
	"stalecert/internal/obs"
	"stalecert/internal/popularity"
	"stalecert/internal/reputation"
	"stalecert/internal/simtime"
	"stalecert/internal/worldsim"
	"stalecert/internal/x509sim"
)

// Results bundles a completed pipeline run.
type Results struct {
	World  *worldsim.World
	Corpus *core.Corpus

	RevokedAll   []core.StaleCert
	KeyComp      []core.StaleCert
	RegChange    []core.StaleCert
	Managed      []core.StaleCert
	RevStats     core.RevocationStats
	CTDedupStats struct {
		Raw, Unique, PrecertMerged int
	}

	// Detection windows (Table 4 date ranges).
	RevWindow     simtime.Span
	RegWindow     simtime.Span
	ManagedWindow simtime.Span

	// Stages are the run's timing spans: the root "pipeline" stage first,
	// then one per stage in run order (world build, corpus indexing, and the
	// three detectors). StageTree is the view `experiments -json` emits.
	Stages []obs.SpanRecord
}

// StageTree renders Stages as the per-stage timing tree.
func (r *Results) StageTree() obs.StageJSON {
	return obs.StageView(obs.BuildSpanTree(r.Stages)[0])
}

// pipeline times one run: a freshly minted trace whose local root is the
// "pipeline" stage, with every stage opened under it.
type pipeline struct {
	id     obs.RequestID
	stages []obs.SpanRecord // stages[0] is the root
}

func newPipeline() *pipeline {
	id := obs.NewRequestID()
	return &pipeline{id: id, stages: []obs.SpanRecord{{TraceID: id.Trace(), SpanID: id.Span(),
		Service: "experiments", Name: "pipeline", Kind: obs.SpanStage, Start: time.Now()}}}
}

func (p *pipeline) start(name string) *obs.SpanRecord {
	return obs.StartStage(p.id, "experiments", name)
}

func (p *pipeline) end(sp *obs.SpanRecord, items int, days simtime.Span) {
	sp.Items = int64(items)
	if days != (simtime.Span{}) {
		sp.Days = days.Start.String() + ".." + days.End.String()
	}
	sp.End()
	p.stages = append(p.stages, *sp)
}

// Run executes the world simulation and all three detection pipelines.
func Run(s worldsim.Scenario) *Results {
	p := newPipeline()
	sp := p.start("world_build")
	w := worldsim.NewWorld(s)
	w.Run()
	p.end(sp, 0, simtime.Span{Start: s.Start, End: s.End})
	return detect(w, p)
}

// Detect runs the measurement pipelines over an already-simulated world.
func Detect(w *worldsim.World) *Results {
	return detect(w, newPipeline())
}

func detect(w *worldsim.World, p *pipeline) *Results {
	r := &Results{World: w}

	sp := p.start("ct_dedup")
	certs, dstats := w.Logs.Dedup()
	r.CTDedupStats.Raw = dstats.RawEntries
	r.CTDedupStats.Unique = dstats.Unique
	r.CTDedupStats.PrecertMerged = dstats.PrecertMerged
	p.end(sp, dstats.RawEntries, simtime.Span{})

	sp = p.start("corpus_index")
	r.Corpus = core.NewCorpus(certs, core.CorpusOptions{PSL: w.PSL})
	p.end(sp, len(certs), simtime.Span{})

	// Pipeline 1: revocations joined against CT with the §4.1 filters.
	cutoff := core.RevocationFilterCutoff
	if !w.S.CRLWindow.Contains(cutoff) && cutoff >= w.S.CRLWindow.End {
		// Scenario ends before the paper's cutoff: scale the cutoff to 13
		// months before the collection window, as the paper did.
		cutoff = w.S.CRLWindow.Start - 396
	}
	sp = p.start("detect_revoked")
	r.RevokedAll, r.RevStats = core.DetectRevoked(r.Corpus, w.RevocationEntries(), cutoff)
	r.KeyComp = core.SplitKeyCompromise(r.RevokedAll)
	r.RevWindow = simtime.Span{Start: cutoff, End: w.S.CRLWindow.End}
	p.end(sp, len(r.RevokedAll), r.RevWindow)

	// Pipeline 2: registrant change from the WHOIS archive.
	sp = p.start("detect_registrant_change")
	rereg := w.Whois.ReRegistrations()
	r.RegChange = core.DetectRegistrantChange(r.Corpus, rereg)
	r.RegWindow = regWindow(r.RegChange, w.S.WHOISWindow)
	p.end(sp, len(r.RegChange), r.RegWindow)

	// Pipeline 3: managed TLS departure from daily aDNS diffs.
	sp = p.start("detect_managed_tls")
	isManaged := func(c *x509sim.Certificate) bool {
		return monitor.HasProviderMarker(c, monitor.MarkerSuffix)
	}
	r.Managed = core.DetectManagedTLSDeparture(r.Corpus, w.ADNS.Departures(), isManaged)
	r.ManagedWindow = w.S.ADNSWindow
	p.end(sp, len(r.Managed), r.ManagedWindow)

	// The root stage is the trace's local root: recording it makes the span
	// store's keep/drop decision (when tracing is on), so a batch run's
	// pipeline timings are queryable at /v1/traces like any served request.
	root := &p.stages[0]
	root.Duration = time.Since(root.Start)
	obs.DefaultSpans().RecordRoot(*root)
	r.Stages = p.stages
	return r
}

// regWindow spans from the earliest registrant-change event to the end of
// WHOIS collection, mirroring Table 4's 2013-04-16..2021-07-09 range.
func regWindow(stale []core.StaleCert, whoisWindow simtime.Span) simtime.Span {
	if len(stale) == 0 {
		return whoisWindow
	}
	return simtime.Span{Start: stale[0].EventDay, End: whoisWindow.End}
}

// ByMethod returns the detections for one method.
func (r *Results) ByMethod(m core.Method) []core.StaleCert {
	switch m {
	case core.MethodRevocation:
		return r.RevokedAll
	case core.MethodKeyCompromise:
		return r.KeyComp
	case core.MethodRegistrantChange:
		return r.RegChange
	case core.MethodManagedTLS:
		return r.Managed
	}
	return nil
}

// staleRegistrantDomains returns the distinct e2LDs with registrant-change
// stale certificates, plus each domain's earliest stale window (event →
// latest notAfter), used by the Table 5 reputation join.
func (r *Results) staleRegistrantDomains() (domains []string, windows map[string]simtime.Span) {
	windows = make(map[string]simtime.Span)
	for _, s := range r.RegChange {
		w, ok := windows[s.Domain]
		end := s.Cert.NotAfter + 1
		if !ok {
			windows[s.Domain] = simtime.Span{Start: s.EventDay, End: end}
			domains = append(domains, s.Domain)
			continue
		}
		if s.EventDay < w.Start {
			w.Start = s.EventDay
		}
		if end > w.End {
			w.End = end
		}
		windows[s.Domain] = w
	}
	return domains, windows
}

// SampleDomains picks up to n random stale-registrant domains (the paper's
// 100K VirusTotal sample).
func (r *Results) SampleDomains(rng *rand.Rand, n int) ([]string, map[string]simtime.Span) {
	domains, windows := r.staleRegistrantDomains()
	if len(domains) > n {
		rng.Shuffle(len(domains), func(i, j int) { domains[i], domains[j] = domains[j], domains[i] })
		domains = domains[:n]
	}
	return domains, windows
}

// SyntheticFeed builds the threat-intel feed for Table 5 over the sampled
// domains.
func (r *Results) SyntheticFeed(seed int64, domains []string, windows map[string]simtime.Span, maliciousFraction float64) *reputation.Feed {
	rng := rand.New(rand.NewSource(seed))
	return reputation.Synthesize(rng, domains, maliciousFraction, func(d string) simtime.Span {
		return windows[d]
	})
}

// PopularitySamples builds the biannual rank lists for Table 6 over the
// world's domain population.
func (r *Results) PopularitySamples(seed int64) *popularity.Samples {
	rng := rand.New(rand.NewSource(seed))
	pool := r.World.AllDomains()
	// The Alexa Top 1M covers only a small slice of all registered domains;
	// scale the list so roughly 2.5%% of simulated e2LDs ever rank, matching
	// Table 6's "%% of total" row.
	listSize := len(pool) / 40
	if listSize < 10 {
		listSize = 10
	}
	from := simtime.MustParse("2014-01-01")
	to := simtime.MustParse("2022-07-01")
	if from < r.World.S.Start {
		from = r.World.S.Start
	}
	if to > r.World.S.End {
		to = r.World.S.End
	}
	return popularity.GenerateBiannual(rng, pool, from, to, listSize)
}
