package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"
)

// Lengths of the traced run's extra phases. The untraced and traced windows
// are each a third of the run length, so that a traced run costs about what an
// untraced one does.
const (
	openProbeFor = 3 * time.Second
	hopProbeFor  = 1500 * time.Millisecond // each way
)

// runTraced reports the per-layer metrics of one workload. Everything is
// measured from outside the daemons: what they export before and after a
// window, what /proc says about them, spans around the harness's own calls,
// and an in-process replay through the packages' public constructors.
func runTraced(ctx context.Context, env *environ, w *workload, seed uint64, d time.Duration) (*report, error) {
	rep := newReport(w.Name, seed, d, true)
	for _, m := range perLayer {
		rep.set(m.Name, 0, m.Unit, 0) // a layer this workload does not deploy reads 0
	}
	tr := newTracer()
	ov, err := buildOverlay(seed)
	if err != nil {
		return nil, err
	}
	var dep *deployment
	err = tr.phase("setup", func(uint64) error {
		dep, err = setUp(ctx, env.BinDir, env.freshDir(), seed, w.Topo, ov)
		return err
	})
	if err != nil {
		return nil, err
	}
	torn := false
	defer func() {
		if !torn {
			dep.tearDown()
		}
	}()
	fail := func(err error) (*report, error) {
		return nil, fmt.Errorf("%w\n%s", err, dep.fleet.stderrTails(15))
	}

	o, err := newOracle(ctx, dep, ov)
	if err != nil {
		return fail(err)
	}
	ks := buildKeyspace(seed, o.corpus, ov.Domains)
	wr := &writer{seed: seed, logURL: dep.logURL(), hc: newLoadClient(1)}
	defer wr.hc.CloseIdleConnections()
	t := &traffic{w, dep, ks, wr}
	readers, writers := w.split()
	part := d / 3

	var bare, traced window
	var before, after *snapshot
	var lagMax float64
	steps := []struct {
		name string
		fn   func(id uint64) error
	}{
		{"warmup", func(uint64) error {
			return t.drive(ctx, seed^0x7761726d, readers, writers, warmup, newSamples(), nil, nil)
		}},
		{"window untraced", func(uint64) error {
			s := newSamples()
			err := t.drive(ctx, seed^0x62617265, readers, writers, part, s, nil, nil) // "bare"
			bare = s.window(readers, writers)
			return err
		}},
		{"window traced", func(id uint64) (err error) {
			if before, err = takeSnapshot(ctx, dep); err != nil {
				return err
			}
			tr.mu.Lock()
			tr.windowID = id
			tr.mu.Unlock()
			stopLag := lagSampler(ctx, dep)
			s := newSamples()
			err = t.drive(ctx, seed, readers, writers, part, s, nil, tr)
			traced = s.window(readers, writers)
			lagMax = stopLag()
			if err != nil {
				return err
			}
			after, err = takeSnapshot(ctx, dep)
			return err
		}},
	}
	for _, s := range steps {
		if err := tr.phase(s.name, s.fn); err != nil {
			return fail(fmt.Errorf("%s: %w", s.name, err))
		}
	}
	fleetDeltas(rep, dep, before, after, traced, tr, lagMax)
	if bare.Reads.RPS > 0 {
		rep.set("trace.overhead_ratio", traced.Reads.RPS/bare.Reads.RPS, "ratio", traced.Reads.Attempted)
	}

	probes := newRecorder() // the two probes' requests: not metrics, but a failed one fails the run
	err = tr.phase("open-loop probe", func(uint64) error {
		p99, late, err := openProbe(ctx, w, seed, dep, ks, traced.Reads.RPS/2, openProbeFor, probes)
		rep.set("loadgen.open_p99_ms", msOf(p99), "ms", int(traced.Reads.RPS/2*openProbeFor.Seconds()))
		rep.set("loadgen.late_p99_ms", msOf(late), "ms", int(traced.Reads.RPS/2*openProbeFor.Seconds()))
		return err
	})
	if err != nil {
		return fail(err)
	}
	if dep.gw != nil {
		err = tr.phase("gateway hop probe", func(uint64) error {
			hop, err := hopProbe(ctx, w, seed, dep, o, ks, hopProbeFor, probes)
			rep.set("stalegw.hop_overhead_us", usOf(hop), "us", 1)
			return err
		})
		if err != nil {
			return fail(err)
		}
	}
	var sw *sweepResult
	err = tr.phase("sweep", func(uint64) error {
		if w.Writes {
			if err := verifyWrites(ctx, dep, wr, rep); err != nil {
				return err
			}
		}
		sw, err = sweep(ctx, dep, o, ks)
		return err
	})
	if err != nil {
		return fail(err)
	}
	for _, p := range sw.Problems {
		rep.violate("sweep: %s", p)
	}
	probed := probes.stats(clients)
	rep.count(bare.Reads.Attempted+bare.Writes.Attempted+traced.Reads.Attempted+traced.Writes.Attempted+probed.Attempted+sw.Attempted,
		bare.Reads.Failed+bare.Writes.Failed+traced.Reads.Failed+traced.Writes.Failed+probed.Failed+sw.Failed)

	// The fleet is done; the in-process rig gets the machine to itself.
	dep.tearDown()
	torn = true
	err = tr.phase("replay and tight loops", func(uint64) error {
		return measureLayers(ctx, env.freshDir(), seed, tr, rep)
	})
	if err != nil {
		return nil, err
	}
	path := filepath.Join(env.OutDir, "trace_"+w.Name+".json")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	rep.note("spans written to %s", path)
	return rep, nil
}

// fleetDeltas turns two snapshots around the traced window into the per-layer
// metrics that come from the daemons' own counters and /proc.
func fleetDeltas(rep *report, dep *deployment, a, b *snapshot, win window, tr *tracer, lagMax float64) {
	reads := float64(win.Reads.Attempted)
	kreq := reads / 1000
	secs := b.at.Sub(a.at).Seconds()
	apis := dep.apis()
	front, frontService := apis, "staleapid" // the daemons the clients talk to
	if dep.gw != nil {
		front, frontService = []*daemon{dep.gw}, "stalegw"
	}
	per := func(name string, v, by float64, unit string) {
		if by > 0 {
			rep.set(name, v/by, unit, int(by))
		}
	}

	// The harness's client.
	per("loadgen.cpu_ms_per_kreq", msOf(b.selfCPU-a.selfCPU), kreq+float64(win.Writes.Attempted)/1000, "ms/kreq")
	// The gap is taken between means: http_request_seconds' sum and count are
	// exact, while its buckets step by 4x and so place a median only roughly.
	if n := delta(a, b, front, "http_request_seconds_count", `service="`+frontService+`"`); n > 0 {
		serverMean := delta(a, b, front, "http_request_seconds_sum", `service="`+frontService+`"`) / n
		rep.set("loadgen.client_server_gap_ms", msOf(win.Reads.Mean)-serverMean*1000, "ms", win.Reads.Attempted)
	}
	// The closed loop's own p99, by the clock: too unsteady on this box to be
	// gated (see endToEnd), so it is reported here.
	rep.set("loadgen.read_p99_ms", msOf(win.Reads.P99), "ms", win.Reads.beyond(0.99))
	for part, name := range map[string]string{"conn_wait": "client.conn_wait_us", "write": "client.write_us",
		"server_wait": "client.server_wait_us", "read": "client.read_us"} {
		p50, n := tr.partP50(part)
		rep.set(name, usOf(p50), "us", n)
	}

	// obs, on every daemon a read passes through.
	path := apis
	if dep.gw != nil {
		path = append([]*daemon{dep.gw}, apis...)
	}
	per("obs.log_records_per_req", delta(a, b, path, "log_records_total"), reads, "count")
	per("obs.spans_per_req", delta(a, b, path, "trace_spans_recorded_total"), reads, "count")

	// staleapid's cache.
	hits := delta(a, b, apis, "staleapi_cache_hits_total")
	misses := delta(a, b, apis, "staleapi_cache_misses_total")
	per("staleapi.cache_hit_ratio", hits, hits+misses, "ratio")
	per("staleapi.singleflight_shared_per_kreq", delta(a, b, apis, "staleapi_singleflight_shared_total"), kreq, "1/kreq")
	per("staleapi.cache_evictions_per_kreq", delta(a, b, apis, "staleapi_cache_evictions_total"), kreq, "1/kreq")

	// Evidence sources: work done per cache miss on the replicas.
	if dep.crl != nil {
		per("crl.fetches_per_miss", delta(a, b, apis, "crl_fetch_total"), misses, "count")
		per("crl.bytes_per_miss", delta(a, b, apis, "crl_fetch_bytes_sum"), misses, "bytes")
		per("whois.queries_per_miss", delta(a, b, []*daemon{dep.whois}, "whois_queries_total"), misses, "count")
		per("dnssim.queries_per_miss", delta(a, b, []*daemon{dep.dns}, "dns_queries_total"), misses, "count")
		per("evidenced.cpu_ms_per_kreq", msOf(cpuDelta(a, b, []*daemon{dep.whois, dep.dns, dep.crl})), kreq, "ms/kreq")
	}

	// certstore and ctlog.
	rep.set("certstore.ingest_lag_max_entries", lagMax, "count", int(secs*10))
	ct := []*daemon{dep.ctlog}
	per("ctlog.entries_served_per_added", b.metrics[dep.ctlog.Name].sum("ctlog_entries_served_total"), float64(dep.LogSize), "ratio")
	per("ctlogd.cpu_ms_per_kreq", msOf(cpuDelta(a, b, ct)), delta(a, b, ct, "http_requests_total")/1000, "ms/kreq")

	// The gateway.
	if dep.gw != nil {
		gw := []*daemon{dep.gw}
		shardReqs := delta(a, b, gw, "stalegw_shard_requests_total")
		per("stalegw.shard_requests_per_req", shardReqs, reads, "count")
		per("stalegw.hedged_ratio", delta(a, b, gw, "stalegw_hedged_requests_total"), shardReqs, "ratio")
		per("stalegw.failover_ratio", delta(a, b, gw, "stalegw_failovers_total"), shardReqs, "ratio")
		per("stalegw.cpu_ms_per_kreq", msOf(cpuDelta(a, b, gw)), kreq, "ms/kreq")
		rep.set("stalegw.rss_peak_mb", b.procs[dep.gw.Name].HWMkB/1024, "MB", 1)
	}

	// Per daemon.
	per("staleapid.cpu_ms_per_kreq", msOf(cpuDelta(a, b, apis)), kreq, "ms/kreq")
	sq := serverQuantiles(a, b, apis, "staleapid", 0.5, 0.99)
	served := delta(a, b, apis, "http_request_seconds_count")
	per("staleapid.server_mean_ms", delta(a, b, apis, "http_request_seconds_sum")*1000, served, "ms")
	rep.set("staleapid.server_p50_ms", msOf(sq[0]), "ms", int(served))
	rep.set("staleapid.server_p99_ms", msOf(sq[1]), "ms", int(served))
	rep.set("staleapid.rss_peak_mb", b.procs[apis[0].Name].HWMkB/1024, "MB", 1)
	rep.set("ctlogd.rss_peak_mb", b.procs[dep.ctlog.Name].HWMkB/1024, "MB", 1)
	per("staleapid.gc_pause_ms_per_s", delta(a, b, apis[:1], "go_gc_pause_seconds_total")*1000, secs, "ms/s")
}
