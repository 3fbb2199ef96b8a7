package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"stalecert/internal/core"
	"stalecert/internal/loadgen"
	"stalecert/internal/x509sim"
)

// mixOp is one read operation and its share of the mix.
type mixOp struct {
	Name   string
	Weight float64
}

// workload is one traffic mix over one topology.
type workload struct {
	Name, Why string
	Topo      topology
	Mix       []mixOp
	ZipfS     float64
	Hot       bool // keys come from the first hotKeys of the keyspace only
	Writes    bool // one client submits certificates while the other reads
	// The staleapid cache hit ratio over the window must lie in
	// [HitMin, HitMax]: it is what makes the workload exercise, or bypass,
	// the cache it was built around.
	HitMin, HitMax float64
}

var hotMix = []mixOp{{"staleness", 40}, {"cert", 40}, {"domaincerts", 20}}

var workloads = []workload{
	{
		Name: "query-hot",
		Why:  "direct staleapid, evidence off, Zipf 1.1 over 400+400 keys that fit the LRU: net/http, obs.Middleware, cache hit and JSON encode do the work",
		Mix:  hotMix, ZipfS: 1.1, Hot: true, HitMin: 0.9, HitMax: 1,
	},
	{
		Name: "query-evidence",
		Why:  "staleness only, WHOIS+DNS+CRL wired, Zipf 0.6 over all e2LDs (12x the LRU): the evidence gather dominates and middleware savings should not show",
		Topo: topology{Evidence: true},
		Mix:  []mixOp{{"staleness", 100}}, ZipfS: 0.6, HitMin: 0, HitMax: 0.3,
	},
	{
		Name: "query-gateway",
		Why:  "query-hot's mix and keys through stalegw (response cache off) over 2 slices x 2 replicas with hedging: routing, resil.Transport and a second middleware pass do the extra work",
		Topo: topology{Gateway: true},
		// Each replica sees half its slice's traffic, so more of its entries
		// pass their 5 s TTL between two requests than on query-hot (0.88 at
		// 2000 req/s) — and more still when the box is slow (0.75 at 460).
		Mix: hotMix, ZipfS: 1.1, Hot: true, HitMin: 0.5, HitMax: 1,
	},
	{
		Name: "ingest-mixed",
		Why:  "one client add-chains while the other runs the query-hot mix: writes and reads share the certstore index, so a gain on one path that costs the other shows",
		// One reader sends half of query-hot's requests, so first touches and
		// expiries are twice the share of them: 0.93-0.96 measured.
		Mix: hotMix, ZipfS: 1.1, Hot: true, Writes: true, HitMin: 0.8, HitMax: 1,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// readOps builds the loadgen ops of the workload's read mix. route gives the
// base URL a path is sent to. Every request records its own raw latency into
// rec, timed from the moment the client asks for it, so that a closed loop's
// durations add up to its clients' time; a non-200 is a failed operation.
// tr, when set, records each call as client spans (the traced run).
func readOps(w *workload, seed uint64, route func(path string) string, ks *keyspace, hc *http.Client, rec *recorder, tr *tracer) ([]loadgen.Op, error) {
	domains, fps := ks.Domains, ks.Fingerprints
	if w.Hot {
		domains, fps = domains[:min(hotKeys, len(domains))], fps[:min(hotKeys, len(fps))]
	}
	var ops []loadgen.Op
	for i, m := range w.Mix {
		var keys []string
		var path func(string) string
		switch m.Name {
		case "staleness":
			keys, path = domains, func(k string) string { return "/v1/domain/" + k + "/staleness" }
		case "domaincerts":
			keys, path = domains, func(k string) string { return "/v1/domain/" + k + "/certs" }
		case "cert":
			keys, path = fps, func(k string) string { return "/v1/cert/" + k }
		default:
			return nil, fmt.Errorf("unknown op %q", m.Name)
		}
		ring, err := newKeyRing(seed+uint64(i)*0x9e3779b97f4a7c15, len(keys), w.ZipfS)
		if err != nil {
			return nil, err
		}
		name := m.Name
		ops = append(ops, loadgen.Op{Name: name, Weight: m.Weight, Do: func(ctx context.Context) (int64, error) {
			start := time.Now()
			p := path(keys[ring.pick()])
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, route(p)+p, nil)
			if err != nil {
				return 0, err
			}
			var sp *clientSpan
			if tr != nil {
				sp, req = tr.startCall(name, req)
			}
			n, err := doDiscard(hc, req)
			dur := time.Since(start)
			if sp != nil {
				tr.endCall(sp, start, dur)
			}
			rec.record(dur, err != nil)
			return n, err
		}})
	}
	return ops, nil
}

// doDiscard performs the request, drains the body and reports any status
// but 200 as an error.
func doDiscard(hc *http.Client, req *http.Request) (int64, error) {
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return n, err
	}
	if resp.StatusCode != http.StatusOK {
		return n, fmt.Errorf("status %d", resp.StatusCode)
	}
	return n, nil
}

// writer is ingest-mixed's add-chain client: fresh seeded certificates, one
// at a time, each acknowledged before the next is sent.
type writer struct {
	seed   uint64
	logURL string
	hc     *http.Client
	next   atomic.Int64
	mu     sync.Mutex
	acked  []*x509sim.Certificate
}

func (wr *writer) op(rec *recorder) loadgen.Op {
	return loadgen.Op{Name: "add-chain", Weight: 1, Do: func(ctx context.Context) (int64, error) {
		start := time.Now()
		cert, err := mixedCert(wr.seed, int(wr.next.Add(1)-1))
		if err != nil {
			return 0, err
		}
		err = addChain(ctx, wr.hc, wr.logURL, cert)
		rec.record(time.Since(start), err != nil)
		if err == nil {
			wr.mu.Lock()
			wr.acked = append(wr.acked, cert)
			wr.mu.Unlock()
		}
		return 0, err
	}}
}

// samples collects what closed loops measured: every request to the fleet,
// reads and writes apart, and every request to the reference server that
// took turns with them. Several drives may add to one.
type samples struct {
	reads, writes, ref *recorder
}

func newSamples() *samples {
	return &samples{reads: newRecorder(), writes: newRecorder(), ref: newRecorder()}
}

// add appends everything other collected.
func (s *samples) add(other *samples) {
	s.reads.add(other.reads)
	s.writes.add(other.writes)
	s.ref.add(other.ref)
}

// window is samples summarised.
type window struct {
	Reads, Writes, Ref windowStats
}

func (s *samples) window(readers, writers int) window {
	return window{Reads: s.reads.stats(readers), Writes: s.writes.stats(writers), Ref: s.ref.stats(clients)}
}

// split is how a workload's window divides the clients.
func (w *workload) split() (readers, writers int) {
	if w.Writes {
		return clients - 1, 1
	}
	return clients, 0
}

// traffic is a workload aimed at one ready fleet.
type traffic struct {
	w   *workload
	dep *deployment
	ks  *keyspace
	wr  *writer
}

// drive runs readers read clients and writers add-chain clients closed-loop
// for d and adds what they measured to into. With ref set, the clients
// take turns between the fleet and the reference server, and d covers both. Warm-up is a separate call whose samples are
// thrown away, so loadgen's own warm-up accounting is never used
// (WarmupFrac stays 0).
func (t *traffic) drive(ctx context.Context, seed uint64, readers, writers int, d time.Duration, into *samples, ref *reference, tr *tracer) error {
	hc := newLoadClient(max(readers, 1))
	defer hc.CloseIdleConnections()
	var runs []loadgen.Config
	if readers > 0 {
		ops, err := readOps(t.w, seed, t.dep.route(), t.ks, hc, into.reads, tr)
		if err != nil {
			return err
		}
		runs = append(runs, loadgen.Config{Ops: ops, Workers: readers})
	}
	if writers > 0 {
		runs = append(runs, loadgen.Config{Ops: []loadgen.Op{t.wr.op(into.writes)}, Workers: writers})
	}
	stopRef := func() {}
	if ref != nil {
		actx, cancel := context.WithCancel(ctx)
		done := make(chan struct{})
		go func() {
			defer close(done)
			ref.alternate(actx)
		}()
		stopRef = func() { cancel(); <-done }
	}
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, cfg := range runs {
		if ref != nil {
			cfg.Ops = ref.interleave(cfg.Ops, into.ref)
		}
		cfg.Mode, cfg.Duration, cfg.Seed = loadgen.ModeClosed, d, seed
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = loadgen.Run(ctx, cfg)
		}()
	}
	wg.Wait()
	stopRef()
	return errors.Join(errs...)
}

// environ is where one invocation builds and runs.
type environ struct {
	BinDir string
	RunDir string // per-invocation scratch for stores, zone files and logs
	OutDir string // result and trace files
	nDirs  int
}

func (e *environ) freshDir() string {
	e.nDirs++
	return filepath.Join(e.RunDir, fmt.Sprintf("fleet-%d", e.nDirs))
}

// A run is roundsPerRun rounds, each on a fleet of its own set up from nothing:
// set-up, warm-up, a third of the window, the write path, the checks. Reads,
// writes and reference requests of all rounds are pooled before they are
// summarised, and setup_s is the median round's. Fleets differ from one
// another more than one fleet does from minute to minute (where a heap
// stands after set-up moves its p99 by a tenth), and three of them inside
// every run keep that out of the difference between two runs.
//
// runSeconds is the measured window of a run, all rounds together. It is
// fixed here and is not an option: BENCHMARK.json declares the same number
// as run_seconds (a unit test keeps the two equal), and the --seconds the
// driver passes is accepted only when it says the same.
const (
	runSeconds    = 12
	roundsPerRun  = 3
	warmup        = time.Second
	writePhaseFor = time.Second // per round, on the workloads whose window has no writer
)

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(ctx context.Context, env *environ, w *workload, seed uint64, d time.Duration, rounds int) (*report, error) {
	rep := newReport(w.Name, seed, d, false)
	ov, err := buildOverlay(seed)
	if err != nil {
		return nil, err
	}
	ref, err := startReference(ctx, env.freshDir(), seed)
	if err != nil {
		return nil, err
	}
	defer ref.stop()

	readers, writers := w.split()
	describe := func(what string, st, ref windowStats) {
		rep.note("%s by the clock: %.1f/s, p50 %.4f ms, p95 %.4f ms, p99 %.4f ms, %d requests; the reference beside them: %.1f/s (%.3f of nominal), p50 %.4f ms, %d requests",
			what, st.RPS, msOf(st.P50), msOf(st.P95), msOf(st.P99), st.Attempted,
			ref.RPS, speed(ref), msOf(ref.P50), ref.Attempted)
	}
	// The windows' samples, and those of the write-only phases that follow
	// them on a workload whose window has no writer.
	pool, writePhases := newSamples(), newSamples()
	var o *oracle
	var ks *keyspace
	var setups, walls []float64
	swept := sweepResult{Methods: make(map[string]int)}
	for i := 0; i < rounds; i++ {
		rep.round = i + 1
		dep, err := setUp(ctx, env.BinDir, env.freshDir(), seed, w.Topo, ov)
		if err != nil {
			return nil, err
		}
		err = func() error {
			defer dep.tearDown()
			// Every fleet of a run is seeded alike, so one oracle and one
			// keyspace serve them all.
			if o == nil {
				if o, err = newOracle(ctx, dep, ov); err == nil {
					ks = buildKeyspace(seed, o.corpus, ov.Domains)
				}
			} else {
				err = o.retarget(dep)
			}
			if err != nil {
				return err
			}
			round, roundWrites := newSamples(), newSamples()
			sw, err := measure(ctx, w, seed, dep, o, ks, d/time.Duration(rounds), ref, round, roundWrites, rep)
			if err != nil {
				return fmt.Errorf("%w\n%s", err, dep.fleet.stderrTails(15))
			}
			win := round.window(readers, writers)
			describe("reads", win.Reads, win.Ref)
			// A set-up cannot take turns with the reference, so it is scaled by
			// the speed its own round's window measured, seconds later.
			walls = append(walls, dep.SetupTime.Seconds())
			setups = append(setups, dep.SetupTime.Seconds()*speed(win.Ref))
			pool.add(round)
			writePhases.add(roundWrites)
			swept.Attempted += sw.Attempted
			swept.Failed += sw.Failed
			for m, n := range sw.Methods {
				swept.Methods[m] += n
			}
			for _, p := range sw.Problems {
				rep.violate("sweep: %s", p)
			}
			return nil
		}()
		if err != nil {
			return nil, err
		}
	}
	rep.round = 0
	rep.set("setup_s", median(setups), "s", len(setups))
	rep.note("set-ups took %.3f s by the clock, %.3f s at the reference's nominal speed", walls, setups)
	rep.note("verification sweeps: %d fetched, %d mismatched, verdicts by method %v", swept.Attempted, swept.Failed, swept.Methods)
	if w.Topo.Evidence {
		for _, m := range []core.Method{core.MethodRevocation, core.MethodRegistrantChange, core.MethodManagedTLS} {
			if swept.Methods[m.String()] == 0 {
				rep.violate("no %q verdict among the swept domains", m)
			}
		}
	}

	win, phases := pool.window(readers, writers), writePhases.window(0, clients)
	writes := win
	if writers == 0 {
		writes = phases
	}
	// The one scaling rule: a rate is divided by the speed the reference
	// measured beside it, a time is multiplied by it.
	sp := speed(win.Ref)
	rep.set("read_rps", win.Reads.RPS/sp, "req/s", win.Reads.Attempted)
	rep.set("read_p50_ms", msOf(win.Reads.P50)*sp, "ms", win.Reads.Attempted)
	rep.set("read_p95_ms", msOf(win.Reads.P95)*sp, "ms", win.Reads.beyond(0.95))
	rep.set("read_p99_ms", msOf(win.Reads.P99)*sp, "ms", win.Reads.beyond(0.99)) // printed, not gated: see endToEnd
	rep.set("write_cps", writes.Writes.RPS/speed(writes.Ref), "certs/s", writes.Writes.Attempted)
	if n := win.Reads.beyond(0.95); n < 10 {
		rep.note("read p95 has only %d samples beyond it: the window is too short to support it", n)
	}
	describe("reads", win.Reads, win.Ref)
	describe("writes", writes.Writes, writes.Ref)
	// The reference's requests are the yardstick's, not the fleet's: they stay
	// out of error_ratio, and one that failed spoils the run on its own.
	rep.count(win.Reads.Attempted+win.Writes.Attempted+phases.Writes.Attempted+swept.Attempted,
		win.Reads.Failed+win.Writes.Failed+phases.Writes.Failed+swept.Failed)
	if n := win.Ref.Failed + phases.Ref.Failed; n > 0 {
		rep.violate("%d of %d requests to the reference server failed", n, win.Ref.Attempted+phases.Ref.Attempted)
	}
	return rep, nil
}

// measure is one round on a ready fleet: warm-up, scrape, window, scrape,
// cache assertion, write path, sweep. The window's samples go to window,
// and those of the write-only phase that follows it, on a workload whose
// window has no writer, to writePhase.
func measure(ctx context.Context, w *workload, seed uint64, dep *deployment, o *oracle, ks *keyspace, d time.Duration, ref *reference, window, writePhase *samples, rep *report) (*sweepResult, error) {
	wr := &writer{seed: seed, logURL: dep.logURL(), hc: newLoadClient(clients)}
	defer wr.hc.CloseIdleConnections()
	t := &traffic{w, dep, ks, wr}
	readers, writers := w.split()

	if err := t.drive(ctx, seed^0x7761726d, readers, writers, warmup, newSamples(), ref, nil); err != nil { // "warm"
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	before, err := takeSnapshot(ctx, dep)
	if err != nil {
		return nil, err
	}
	if err := t.drive(ctx, seed, readers, writers, d, window, ref, nil); err != nil {
		return nil, err
	}
	after, err := takeSnapshot(ctx, dep)
	if err != nil {
		return nil, err
	}
	hits := delta(before, after, dep.apis(), "staleapi_cache_hits_total")
	misses := delta(before, after, dep.apis(), "staleapi_cache_misses_total")
	ratio := hits / max(hits+misses, 1)
	rep.note("staleapid cache hit ratio %.3f (%d hits, %d misses), must be in [%.2f, %.2f]", ratio, int(hits), int(misses), w.HitMin, w.HitMax)
	if ratio < w.HitMin || ratio > w.HitMax {
		rep.violate("cache hit ratio %.3f outside [%.2f, %.2f]", ratio, w.HitMin, w.HitMax)
	}
	if writers == 0 {
		// No writer ran beside the readers, so the write path is measured on
		// its own: every client add-chains for writePhase.
		if err := t.drive(ctx, seed, 0, clients, writePhaseFor, writePhase, ref, nil); err != nil {
			return nil, err
		}
	}
	if err := verifyWrites(ctx, dep, wr, rep); err != nil {
		return nil, err
	}
	return sweep(ctx, dep, o, ks)
}

// verifyWrites checks what write_cps claims: that every acknowledged
// certificate became visible. The replica must catch up to the log head
// (ingest lag back to 0) and a seeded sample of the acknowledged
// certificates must resolve by fingerprint.
func verifyWrites(ctx context.Context, dep *deployment, wr *writer, rep *report) error {
	size, err := treeSize(ctx, dep.logURL())
	if err != nil {
		return err
	}
	if err := dep.waitIngested(ctx, size, 30*time.Second); err != nil {
		return err
	}
	for _, api := range dep.apis() {
		m, err := api.scrape(ctx)
		if err != nil {
			return err
		}
		if lag := m["certstore_ingest_lag_entries"]; lag != 0 {
			rep.violate("%s: ingest lag %v after catch-up", api.Name, lag)
		}
	}
	wr.mu.Lock()
	acked := wr.acked
	wr.mu.Unlock()
	r := &rng{state: wr.seed ^ 0x61636b6564} // "acked"
	hc := newLoadClient(1)
	defer hc.CloseIdleConnections()
	missing := 0
	n := min(sweepKeys, len(acked))
	for i := 0; i < n; i++ {
		c := acked[r.intn(len(acked))]
		code, _, err := fetch(ctx, hc, dep.target()+"/v1/cert/"+c.Fingerprint().Hex())
		if err != nil || code != http.StatusOK {
			missing++
		}
	}
	rep.note("writes: %d certificates acknowledged, log size %d, %d of %d sampled resolve", len(acked), size, n-missing, n)
	if missing > 0 {
		rep.violate("%d of %d acknowledged certificates are not visible on staleapid", missing, n)
	}
	return nil
}
