package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"stalecert/internal/ca"
	"stalecert/internal/certstore"
	"stalecert/internal/core"
	"stalecert/internal/crl"
	"stalecert/internal/ctlog"
	"stalecert/internal/dnsname"
	"stalecert/internal/dnssim"
	"stalecert/internal/merkle"
	"stalecert/internal/monitor"
	"stalecert/internal/obs"
	"stalecert/internal/psl"
	"stalecert/internal/registry"
	"stalecert/internal/resil"
	"stalecert/internal/shard"
	"stalecert/internal/simtime"
	"stalecert/internal/staleapi"
	"stalecert/internal/whois"
	"stalecert/internal/x509sim"
)

// Sizes of the in-process rig the replay and the tight loops run against.
// It is a scaled copy of the fleet's corpus: the same three evidence sources
// at the same revocation count, fewer certificates.
const (
	rigDomains     = 1000
	rigCertsPerDom = 5
	rigTenCertDom  = "tencerts.com" // the "median 10-cert domain" of core.domain_staleness_ns
	replayHot      = 2000           // hot-mix requests replayed
	replayEvidence = 250            // evidence-on staleness requests replayed
	loopBudget     = 40 * time.Millisecond
)

// timeLoop runs fn repeatedly for about budget, in five rounds, and returns
// the median round's time and allocations per call.
func timeLoop(budget time.Duration, fn func()) (nsPerOp, allocsPerOp float64) {
	fn() // first-call set-up is not the steady state
	batch := 1
	for {
		start := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		if time.Since(start) > 200*time.Microsecond || batch >= 1<<20 {
			break
		}
		batch *= 2
	}
	const rounds = 5
	var ns, allocs []float64
	var ms runtime.MemStats
	for r := 0; r < rounds; r++ {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		n := 0
		start := time.Now()
		for time.Since(start) < budget/rounds {
			for i := 0; i < batch; i++ {
				fn()
			}
			n += batch
		}
		el := time.Since(start)
		runtime.ReadMemStats(&ms)
		ns = append(ns, float64(el.Nanoseconds())/float64(n))
		allocs = append(allocs, float64(ms.Mallocs-m0)/float64(n))
	}
	return median(ns), median(allocs)
}

// rig is the in-process copy of the query path, assembled from the packages'
// public constructors only.
type rig struct {
	dir      string
	certs    []*x509sim.Certificate
	domains  []string
	store    *certstore.Store
	corpus   *core.Corpus
	revs     []crl.Entry
	whoisSrv *whois.Server
	dnsSrv   *dnssim.Server
	crlTS    *httptest.Server
	evidence staleapi.EvidenceFunc // gathers over the wire from the three servers
	hops     *hopTimer
}

// hopTimer records the replay's spans. The replay is single-threaded, so a
// stack tracks the current parent. A span's self time is its duration less
// the time its child spans cover.
type hopTimer struct {
	on    bool
	tr    *tracer // spans of the first requests also go to the trace file
	trace uint64
	stack []hopFrame
	cur   hopRow   // the request in progress
	rows  []hopRow // one per finished request
}

type hopFrame struct {
	id       uint64
	children time.Duration
}

// hopRow is one request: time inside each named hop, with and without the
// hop's children.
type hopRow struct {
	dur, self map[string]time.Duration
}

func newHopTimer(tr *tracer) *hopTimer {
	h := &hopTimer{tr: tr}
	h.reset()
	return h
}

// reset forgets the finished requests and opens a new trace.
func (h *hopTimer) reset() {
	h.rows = nil
	h.finishRequest()
}

func (h *hopTimer) span(name string, fn func()) {
	if !h.on {
		fn()
		return
	}
	var parent uint64
	if n := len(h.stack); n > 0 {
		parent = h.stack[n-1].id
	}
	id := h.tr.nextID.Add(1)
	h.stack = append(h.stack, hopFrame{id: id})
	start := time.Now()
	fn()
	end := time.Now()
	dur := end.Sub(start)
	top := len(h.stack) - 1
	h.cur.dur[name] += dur
	h.cur.self[name] += dur - h.stack[top].children
	h.stack = h.stack[:top]
	if top > 0 {
		h.stack[top-1].children += dur
	}
	h.tr.add(span{Trace: h.trace, ID: id, Parent: parent, Name: "replay " + name,
		Start: int64(start.Sub(h.tr.epoch)), End: int64(end.Sub(h.tr.epoch))})
}

func (h *hopTimer) finishRequest() {
	if len(h.cur.dur) > 0 {
		h.rows = append(h.rows, h.cur)
	}
	h.cur = hopRow{dur: map[string]time.Duration{}, self: map[string]time.Duration{}}
	h.trace = h.tr.nextID.Add(1)
}

// p50 is the median time per request spent inside the named hop, children
// included.
func (h *hopTimer) p50(name string) time.Duration {
	d := make([]time.Duration, len(h.rows))
	for i, r := range h.rows {
		d[i] = r.dur[name]
	}
	return medianOf(d)
}

// medianSelf says where a median request spends its time: the requests are
// ordered by the time inside the outermost hop, and each hop's self time is
// averaged over the middle fifth. Within one request self times add up to the
// whole exactly, so these add up to the median; medians taken hop by hop do
// not, because a slow CRL download and a slow WHOIS answer are rarely the
// same request's.
func (h *hopTimer) medianSelf(outer string) map[string]time.Duration {
	rows := append([]hopRow(nil), h.rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].dur[outer] < rows[j].dur[outer] })
	mid := rows[len(rows)*2/5 : max(len(rows)*3/5, len(rows)*2/5+1)]
	out := make(map[string]time.Duration)
	for _, r := range mid {
		for name, d := range r.self {
			out[name] += d
		}
	}
	for name := range out {
		out[name] /= time.Duration(len(mid))
	}
	return out
}

func newRig(dir string, seed uint64, tr *tracer) (*rig, error) {
	r := &rig{dir: dir, hops: newHopTimer(tr)}
	rnd := &rng{state: seed ^ 0x726967} // "rig"
	reg := registry.New("com", "net")
	zone := dnssim.NewZone("com")
	serial := 0
	mint := func(domain string, n int) error {
		created := whoisBase + simtime.Day(rnd.intn(365))
		if _, err := reg.Register(domain, "registrant", "GoDaddy", created, 1); err != nil {
			return err
		}
		ns := "ns1.hoster.net"
		if rnd.intn(2) == 0 {
			ns = "kiki.ns.cloudflare.com"
		}
		if err := zone.Add(dnssim.Record{Name: domain, Type: dnssim.TypeNS, TTL: 86400, Data: ns}); err != nil {
			return err
		}
		for k := 0; k < n; k++ {
			serial++
			names := []string{domain, "www." + domain}
			if rnd.intn(2) == 0 {
				names = append(names, fmt.Sprintf("sni%d.%s", serial, markerSuffix))
			}
			nb := created - simtime.Day(1+rnd.intn(100))
			c, err := x509sim.New(x509sim.SerialNumber(serial), overlayIssuer, x509sim.KeyID(serial),
				names, nb, evalDay+simtime.Day(30+rnd.intn(300)))
			if err != nil {
				return err
			}
			r.certs = append(r.certs, c)
		}
		r.domains = append(r.domains, domain)
		return nil
	}
	if err := mint(rigTenCertDom, 10); err != nil {
		return nil, err
	}
	for i := 0; i < rigDomains; i++ {
		if err := mint(fmt.Sprintf("rig%05d.com", i), rigCertsPerDom); err != nil {
			return nil, err
		}
	}
	reg.Tick(whoisBase + 400)

	var err error
	if r.store, err = certstore.Open(certstore.Options{Dir: filepath.Join(dir, "store")}); err != nil {
		return nil, err
	}
	if _, err := r.store.Append(r.certs); err != nil {
		return nil, err
	}
	r.corpus = core.NewCorpus(r.certs, core.CorpusOptions{MaxPerFQDN: -1})

	// Evidence servers, seeded as crld, whoisd and dnsscand seed theirs.
	crlSrv := crl.NewServer(int64(seed))
	crlSrv.SetNow(evalDay)
	var caNames []string
	for _, p := range ca.NewDirectory().All() {
		a := crl.NewAuthority(p.Name)
		for i := 0; i < revocations; i++ {
			a.Revoke(p.ID, x509sim.SerialNumber(i+1), evalDay-simtime.Day(rnd.intn(365)), crl.Superseded)
		}
		crlSrv.Host(a, 0)
		caNames = append(caNames, p.Name)
	}
	r.crlTS = httptest.NewServer(crlSrv.Handler())
	r.whoisSrv = whois.NewServer(&whois.RegistrySource{Registry: reg})
	whoisAddr, err := r.whoisSrv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	dnsStore := dnssim.NewStore()
	dnsStore.AddZone(zone)
	r.dnsSrv = dnssim.NewServer(dnsStore)
	dnsAddr, err := r.dnsSrv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}

	// The gatherer below is staleapid's flag wiring, written against the
	// same public calls, with a span around each source.
	fetcher := &crl.Fetcher{Base: r.crlTS.URL}
	resolver := &dnssim.Resolver{ServerAddr: dnsAddr.String(), Timeout: 2 * time.Second}
	isManaged := func(c *x509sim.Certificate) bool { return monitor.HasProviderMarker(c, markerSuffix) }
	r.evidence = func(ctx context.Context, domain string) (ev core.DomainEvidence, err error) {
		r.hops.span("evidence", func() {
			ev = core.DomainEvidence{RevocationCutoff: simtime.NoDay, IsManaged: isManaged}
			r.hops.span("whois", func() {
				var rec whois.Record
				if rec, err = whois.Query(ctx, whoisAddr.String(), domain); err == nil {
					ev.ReRegistrations = []whois.ReRegistration{{Domain: domain, NewCreation: rec.Created}}
				} else if errors.Is(err, whois.ErrNoMatch) {
					err = nil
				}
			})
			if err != nil {
				return
			}
			r.hops.span("crl", func() {
				var lists map[string]*crl.List
				if lists, err = fetcher.FetchAll(ctx, caNames); err == nil {
					for _, n := range caNames {
						if l := lists[n]; l != nil {
							ev.Revocations = append(ev.Revocations, l.Entries...)
						}
					}
				}
			})
			if err != nil {
				return
			}
			r.hops.span("dns", func() {
				delegated := false
				for _, q := range []struct {
					name string
					typ  dnssim.RRType
				}{{domain, dnssim.TypeNS}, {"www." + domain, dnssim.TypeCNAME}} {
					recs, qerr := resolver.Query(ctx, q.name, q.typ)
					var nx *dnssim.NXDomainError
					if qerr != nil && !errors.As(qerr, &nx) {
						err = qerr
						return
					}
					for _, rec := range recs {
						if rec.Type == dnssim.TypeNS && dnsname.IsSubdomain(rec.Data, "ns.cloudflare.com") {
							delegated = true
						}
					}
				}
				if !delegated {
					ev.Departures = []dnssim.Departure{{Domain: domain, LastSeen: evalDay - 1, FirstGone: evalDay}}
				}
			})
		})
		return ev, err
	}
	// One gather now fills r.revs for the core loops.
	ev, err := r.evidence(context.Background(), rigTenCertDom)
	if err != nil {
		return nil, fmt.Errorf("rig evidence: %w", err)
	}
	r.revs = ev.Revocations
	return r, nil
}

func (r *rig) close() {
	r.crlTS.Close()
	_ = r.whoisSrv.Close()
	_ = r.dnsSrv.Close()
	_ = r.store.Close()
}

// chain assembles obs.Middleware → staleapi handler → evidence → certstore,
// with a span either side of the middleware.
func (r *rig) chain(evidence staleapi.EvidenceFunc, ttl time.Duration) http.Handler {
	srv := staleapi.NewServer(staleapi.Config{
		Store:    r.store,
		Evidence: evidence,
		Now:      func() simtime.Day { return evalDay },
		CacheTTL: ttl,
		Health:   obs.NewHealth(),
	})
	inner := srv.Handler()
	mw := obs.Middleware(obs.NewRegistry(), "replay", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r.hops.span("handler", func() { inner.ServeHTTP(w, req) })
	}))
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r.hops.span("middleware", func() { mw.ServeHTTP(w, req) })
	})
}

// replay sends every path through h twice, once bare for the end-to-end
// median and once with spans on for the per-hop self times, and returns the
// bare median. The two requests of a path follow each other and take turns
// going first, so both medians are taken over the same seconds: the box
// changes speed between two passes a second long by more than the spans cost.
func (r *rig) replay(h http.Handler, paths []string) (time.Duration, error) {
	serve := func(p string) (time.Duration, error) {
		req := httptest.NewRequest(http.MethodGet, p, nil)
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		dur := time.Since(start)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("replay %s: status %d: %.100s", p, rec.Code, rec.Body.String())
		}
		return dur, nil
	}
	defer func() { r.hops.on = false }()
	r.hops.reset()
	bare := make([]time.Duration, 0, len(paths))
	for i, p := range paths {
		for _, spans := range [2]bool{i%2 == 1, i%2 == 0} {
			r.hops.on = spans
			dur, err := serve(p)
			if err != nil {
				return 0, err
			}
			if spans {
				r.hops.finishRequest()
			} else {
				bare = append(bare, dur)
			}
		}
	}
	return medianOf(bare), nil
}

// measureLayers runs the in-process replay and the tight loops and sets
// every metric that does not need the spawned fleet.
func measureLayers(ctx context.Context, dir string, seed uint64, tr *tracer, rep *report) error {
	// obs.Middleware writes an access-log record per request through slog's
	// default logger. The daemons format it to stderr; here it is formatted
	// and discarded, so the replay pays the formatting as they do.
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	defer slog.SetDefault(prev)

	r, err := newRig(dir, seed, tr)
	if err != nil {
		return err
	}
	defer r.close()
	rnd := &rng{state: seed ^ 0x7265706c6179} // "replay"
	us := func(name string, d time.Duration, n int) { rep.set(name, usOf(d), "us", n) }

	// Replay 1: evidence on, a nanosecond TTL so every request misses the
	// cache — the path query-evidence takes on a miss.
	var paths []string
	for i := 0; i < replayEvidence; i++ {
		paths = append(paths, "/v1/domain/"+r.domains[rnd.intn(len(r.domains))]+"/staleness")
	}
	e2e, err := r.replay(r.chain(r.evidence, time.Nanosecond), paths)
	if err != nil {
		return err
	}
	hops := []struct{ metric, span string }{
		{"replay.middleware_self_us", "middleware"},
		{"replay.handler_self_us", "handler"},
		{"replay.evidence_self_us", "evidence"},
		{"replay.whois_us", "whois"},
		{"replay.crl_us", "crl"},
		{"replay.dns_us", "dns"},
	}
	self := r.hops.medianSelf("middleware")
	var sum time.Duration
	for _, hop := range hops {
		us(hop.metric, self[hop.span], len(paths))
		sum += self[hop.span]
	}
	us("replay.e2e_us", e2e, len(paths))
	us("replay.self_sum_us", sum, len(paths))
	// The residual is reported, not enforced: it says how far the layers are
	// from explaining a request, which is a finding about the program, and a
	// busy second during the replay moves it by a few percent.
	residual := float64(sum-e2e) / float64(e2e)
	rep.set("replay.residual_ratio", residual, "ratio", len(paths))
	if residual > 0.10 || residual < -0.10 {
		rep.note("replay self times sum to %s, %.1f%% off the end-to-end median %s", sum, residual*100, e2e)
	}

	// Replay 2: the hot mix with evidence off and the default TTL.
	paths = paths[:0]
	for i := 0; i < replayHot; i++ {
		d := r.domains[rnd.intn(100)]
		switch k := rnd.intn(10); {
		case k < 4:
			paths = append(paths, "/v1/domain/"+d+"/staleness")
		case k < 8:
			paths = append(paths, "/v1/cert/"+r.certs[rnd.intn(500)].Fingerprint().Hex())
		default:
			paths = append(paths, "/v1/domain/"+d+"/certs")
		}
	}
	hotE2E, err := r.replay(r.chain(nil, 0), paths)
	if err != nil {
		return err
	}
	us("replay.hot_e2e_us", hotE2E, len(paths))
	self = r.hops.medianSelf("middleware")
	us("replay.hot_middleware_self_us", self["middleware"], len(paths))
	us("replay.hot_handler_self_us", self["handler"], len(paths))

	return r.tightLoops(ctx, rnd, rep)
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// tightLoops times each public function on the query and ingest paths in
// isolation.
func (r *rig) tightLoops(ctx context.Context, rnd *rng, rep *report) error {
	loop := func(name, unit string, scale float64, fn func()) {
		ns, _ := timeLoop(loopBudget, fn)
		rep.set(name, ns/scale, unit, 5)
	}
	null := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	serve := func(h http.Handler, path string) func() {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		return func() { h.ServeHTTP(httptest.NewRecorder(), req) }
	}

	// obs: Middleware(null) − null.
	nullNS, nullAllocs := timeLoop(loopBudget, serve(null, "/v1/null"))
	mwNS, mwAllocs := timeLoop(loopBudget, serve(obs.Middleware(obs.NewRegistry(), "loop", null), "/v1/null"))
	rep.set("obs.middleware_ns", mwNS-nullNS, "ns", 5)
	rep.set("obs.middleware_allocs", mwAllocs-nullAllocs, "allocs", 5)

	// staleapi: the cache alone, then each handler without middleware.
	cache := staleapi.NewCache(lruEntries, 5*time.Second)
	loader := func() (any, error) { return 1, nil }
	_, _, _ = cache.Do("hot", loader)
	loop("staleapi.cache_hit_ns", "ns", 1, func() { _, _, _ = cache.Do("hot", loader) })
	miss := 0
	loop("staleapi.cache_miss_ns", "ns", 1, func() {
		miss++
		_, _, _ = cache.Do(fmt.Sprint("k", miss), loader)
	})
	srv := staleapi.NewServer(staleapi.Config{Store: r.store, Now: func() simtime.Day { return evalDay },
		CacheTTL: time.Hour, Health: obs.NewHealth()})
	h := srv.Handler()
	fp := r.certs[20].Fingerprint()
	loop("staleapi.handler_staleness_hit_ns", "ns", 1, serve(h, "/v1/domain/"+r.domains[5]+"/staleness"))
	loop("staleapi.handler_cert_ns", "ns", 1, serve(h, "/v1/cert/"+fp.Hex()))
	loop("staleapi.handler_domaincerts_ns", "ns", 1, serve(h, "/v1/domain/"+r.domains[5]+"/certs"))

	// core: one 10-cert domain with full evidence; the slope as the
	// revocation list grows tenfold; the batch detectors over the corpus.
	ev := core.DomainEvidence{
		Revocations:      r.revs,
		ReRegistrations:  []whois.ReRegistration{{Domain: rigTenCertDom, NewCreation: whoisBase + 100}},
		Departures:       []dnssim.Departure{{Domain: rigTenCertDom, LastSeen: evalDay - 1, FirstGone: evalDay}},
		RevocationCutoff: simtime.NoDay,
		IsManaged:        func(c *x509sim.Certificate) bool { return monitor.HasProviderMarker(c, markerSuffix) },
	}
	base, _ := timeLoop(loopBudget, func() { core.DomainStaleness(r.store, rigTenCertDom, ev) })
	rep.set("core.domain_staleness_ns", base, "ns", 5)
	big := ev
	for i := 0; i < 10; i++ {
		big.Revocations = append(big.Revocations, r.revs...)
	}
	big.Revocations = big.Revocations[:10*len(r.revs)]
	grown, _ := timeLoop(loopBudget, func() { core.DomainStaleness(r.store, rigTenCertDom, big) })
	rep.set("core.domain_staleness_ns_per_rev", (grown-base)/float64(9*len(r.revs)), "ns", 5)
	var rereg []whois.ReRegistration
	var deps []dnssim.Departure
	for i, d := range r.domains {
		rereg = append(rereg, whois.ReRegistration{Domain: d, NewCreation: whoisBase + simtime.Day(i%365)})
		if i%2 == 0 {
			deps = append(deps, dnssim.Departure{Domain: d, LastSeen: evalDay - 1, FirstGone: evalDay})
		}
	}
	batch, _ := timeLoop(loopBudget, func() {
		core.DetectRevoked(r.corpus, r.revs, simtime.NoDay)
		core.DetectRegistrantChange(r.corpus, rereg)
		core.DetectManagedTLSDeparture(r.corpus, deps, ev.IsManaged)
	})
	rep.set("core.batch_detect_us_per_cert", batch/1e3/float64(r.corpus.Len()), "us", 5)

	// Evidence sources, one gather each over loopback.
	var gatherErr error
	gctx := context.Background()
	r.hops.on = true
	r.hops.reset()
	const gathers = 40
	for i := 0; i < gathers && gatherErr == nil; i++ {
		_, gatherErr = r.evidence(gctx, r.domains[rnd.intn(len(r.domains))])
		r.hops.finishRequest()
	}
	r.hops.on = false
	if gatherErr != nil {
		return gatherErr
	}
	rep.set("whois.query_us", usOf(r.hops.p50("whois")), "us", gathers)
	rep.set("dnssim.query_us", usOf(r.hops.p50("dns"))/2, "us", 2*gathers) // two questions per gather
	rep.set("crl.fetch_all_us", usOf(r.hops.p50("crl")), "us", gathers)
	crlBytes := 0.0
	for _, p := range ca.NewDirectory().All() {
		code, body, err := fetch(ctx, scrapeClient, r.crlTS.URL+"/crl/"+p.Name)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("rig CRL %s: status %d, err %v", p.Name, code, err)
		}
		crlBytes += float64(len(body))
	}
	rep.set("crl.bytes_per_fetch_all", crlBytes, "bytes", 1)

	// certstore: index reads, then the write side in a scratch store.
	dom := r.domains[7]
	loop("certstore.by_e2ld_ns", "ns", 1, func() { r.store.ByE2LD(dom) })
	loop("certstore.by_fingerprint_ns", "ns", 1, func() { r.store.ByFingerprint(fp) })
	scratch := filepath.Join(r.dir, "append")
	st, err := certstore.Open(certstore.Options{Dir: scratch})
	if err != nil {
		return err
	}
	began := time.Now()
	for i := 0; i < len(r.certs); i += 256 {
		if _, err := st.Append(r.certs[i:min(i+256, len(r.certs))]); err != nil {
			return err
		}
	}
	rep.set("certstore.append_us_per_cert", usOf(time.Since(began))/float64(len(r.certs)), "us", len(r.certs))
	if err := st.Close(); err != nil {
		return err
	}
	size, err := dirBytes(scratch)
	if err != nil {
		return err
	}
	rep.set("certstore.bytes_per_cert", float64(size)/float64(len(r.certs)), "bytes", len(r.certs))
	var opens []float64
	for i := 0; i < 3; i++ {
		began = time.Now()
		st, err = certstore.Open(certstore.Options{Dir: scratch})
		if err != nil {
			return err
		}
		opens = append(opens, msOf(time.Since(began))/(float64(len(r.certs))/1000))
		if err := st.Close(); err != nil {
			return err
		}
	}
	rep.set("certstore.open_ms_per_kcert", median(opens), "ms", len(opens))

	// ctlog: add-chain into an in-process log, then the ingester's whole
	// round trip — get-entries, codec, Merkle verify, Append — against it.
	lg := ctlog.New("rig-log", ctlog.Shard{})
	began = time.Now()
	for _, c := range r.certs {
		if _, err := lg.AddChain(c, evalDay); err != nil {
			return err
		}
	}
	rep.set("ctlog.add_chain_us", usOf(time.Since(began))/float64(len(r.certs)), "us", len(r.certs))
	logTS := httptest.NewServer(ctlog.NewServer(lg).Handler())
	defer logTS.Close()
	client := ctlog.NewClient(logTS.URL, nil)
	began = time.Now()
	entries, err := client.GetEntries(ctx, 0, 999)
	if err != nil || len(entries) == 0 {
		return fmt.Errorf("rig get-entries: %d entries, err %v", len(entries), err)
	}
	rep.set("ctlog.get_entries_us_per_entry", usOf(time.Since(began))/float64(len(entries)), "us", len(entries))
	ingestStore, err := certstore.Open(certstore.Options{Dir: filepath.Join(r.dir, "ingest")})
	if err != nil {
		return err
	}
	began = time.Now()
	added, err := certstore.NewIngester(ingestStore, client).Sync(ctx)
	if cerr := ingestStore.Close(); err == nil {
		err = cerr
	}
	if err != nil || added == 0 {
		return fmt.Errorf("rig ingest sync: added %d, err %v", added, err)
	}
	rep.set("certstore.ingest_sync_us_per_cert", usOf(time.Since(began))/float64(added), "us", added)

	// Codecs, Merkle, PSL, ring.
	c := r.certs[3]
	raw := c.Marshal()
	loop("x509sim.marshal_ns", "ns", 1, func() { c.Marshal() })
	loop("x509sim.unmarshal_ns", "ns", 1, func() { _, _ = x509sim.Unmarshal(raw) })
	loop("x509sim.fingerprint_ns", "ns", 1, func() { c.Fingerprint() })
	var tree merkle.Tree
	loop("merkle.append_ns", "ns", 1, func() { tree.AppendData(raw) })
	var small merkle.Tree
	for i := 0; i < 10000; i++ {
		small.AppendData([]byte{byte(i), byte(i >> 8)})
	}
	root1, err1 := small.RootAt(5000)
	proof, err2 := small.ConsistencyProof(5000, 10000)
	if err := errors.Join(err1, err2); err != nil {
		return err
	}
	root2 := small.Root()
	if !merkle.VerifyConsistency(5000, 10000, root1, root2, proof) {
		return errors.New("rig consistency proof does not verify")
	}
	loop("merkle.verify_consistency_us", "us", 1e3, func() { merkle.VerifyConsistency(5000, 10000, root1, root2, proof) })
	list := psl.Default()
	loop("psl.etld_plus_one_ns", "ns", 1, func() { _, _ = list.ETLDPlusOne("www.example000123.com") })
	ring, err := shard.NewRing(2, shard.DefaultVNodes)
	if err != nil {
		return err
	}
	loop("shard.owner_ns", "ns", 1, func() { ring.Lookup(shard.KeyForDomain(dom)) })

	// The client's floor: a null handler over loopback through the harness's
	// own client, and what resil.Transport adds to that.
	nullTS := httptest.NewServer(null)
	defer nullTS.Close()
	rtt := func(hc *http.Client) (time.Duration, error) {
		var durs []time.Duration
		for began := time.Now(); time.Since(began) < 300*time.Millisecond; {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, nullTS.URL+"/v1/null", nil)
			if err != nil {
				return 0, err
			}
			start := time.Now()
			if _, err := doDiscard(hc, req); err != nil {
				return 0, err
			}
			durs = append(durs, time.Since(start))
		}
		return medianOf(durs), nil
	}
	plain := newLoadClient(1)
	defer plain.CloseIdleConnections()
	floor, err := rtt(plain)
	if err != nil {
		return err
	}
	rep.set("loadgen.null_rtt_us", usOf(floor), "us", 1)
	resilient := resil.NewHTTPClient(resil.Options{Service: "benchmark"})
	defer resilient.CloseIdleConnections()
	viaResil, err := rtt(resilient)
	if err != nil {
		return err
	}
	rep.set("resil.transport_overhead_us", usOf(viaResil-floor), "us", 1)
	return nil
}
