package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"stalecert/internal/loadgen"
	"stalecert/internal/shard"
)

// span is one timed interval: a phase of the run, a client call, a part of a
// call, or a hop of the in-process replay. Spans of one request share Trace;
// Parent is the span that caused this one (0 for a root).
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Client calls are also
// reduced on the fly to per-part durations, so that the file may be capped
// without losing the statistics.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu       sync.Mutex
	spans    []span
	dropped  int
	windowID uint64 // parent of client call spans
	parts    map[string][]time.Duration
}

// maxFileSpans caps the trace file: a hot window completes tens of thousands
// of calls of four spans each, and the first ones tell the same story.
const maxFileSpans = 40000

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), parts: make(map[string][]time.Duration)}
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < maxFileSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// phase records fn as a root span of the run's own trace; fn gets the span's
// ID to parent its children on.
func (t *tracer) phase(name string, fn func(id uint64) error) error {
	id := t.nextID.Add(1)
	start := time.Since(t.epoch)
	err := fn(id)
	t.add(span{Trace: 1, ID: id, Name: name, Start: int64(start), End: int64(time.Since(t.epoch))})
	return err
}

// clientSpan collects the httptrace events of one call.
type clientSpan struct {
	name                        string
	gotConn, wrote, firstByteAt time.Time
}

// startCall attaches an httptrace to the request: when the connection was
// handed over, when the request was written, when the first response byte
// arrived. Those split the client's view of a call into waiting for a
// connection, writing, waiting for the server, and reading the body.
func (t *tracer) startCall(name string, req *http.Request) (*clientSpan, *http.Request) {
	sp := &clientSpan{name: name}
	ct := &httptrace.ClientTrace{
		GotConn:              func(httptrace.GotConnInfo) { sp.gotConn = time.Now() },
		WroteRequest:         func(httptrace.WroteRequestInfo) { sp.wrote = time.Now() },
		GotFirstResponseByte: func() { sp.firstByteAt = time.Now() },
	}
	return sp, req.WithContext(httptrace.WithClientTrace(req.Context(), ct))
}

func (t *tracer) endCall(sp *clientSpan, start time.Time, dur time.Duration) {
	end := start.Add(dur)
	trace := t.nextID.Add(1)
	call := span{Trace: trace, ID: t.nextID.Add(1), Name: "call " + sp.name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	marks := []struct {
		name     string
		from, to time.Time
	}{
		{"conn_wait", start, sp.gotConn},
		{"write", sp.gotConn, sp.wrote},
		{"server_wait", sp.wrote, sp.firstByteAt},
		{"read", sp.firstByteAt, end},
	}
	t.mu.Lock()
	call.Parent = t.windowID
	room := len(t.spans)+1+len(marks) <= maxFileSpans
	if room {
		t.spans = append(t.spans, call)
	} else {
		t.dropped += 1 + len(marks)
	}
	for _, m := range marks {
		if m.from.IsZero() || m.to.IsZero() {
			continue // the call failed before this part
		}
		t.parts[m.name] = append(t.parts[m.name], m.to.Sub(m.from))
		if room {
			t.spans = append(t.spans, span{Trace: trace, ID: t.nextID.Add(1), Parent: call.ID, Name: m.name,
				Start: int64(m.from.Sub(t.epoch)), End: int64(m.to.Sub(t.epoch))})
		}
	}
	t.mu.Unlock()
}

// partP50 is the median duration of one part of the client calls.
func (t *tracer) partP50(name string) (time.Duration, int) {
	t.mu.Lock()
	d := append([]time.Duration(nil), t.parts[name]...)
	t.mu.Unlock()
	return medianOf(d), len(d)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Dropped int    `json:"spans_dropped_over_cap"`
		Spans   []span `json:"spans"`
	}{t.dropped, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// snapshot is the externally visible state of the fleet and the harness at
// one instant: every daemon's /metrics and /proc entry, and the harness's
// own CPU time.
type snapshot struct {
	at      time.Time
	metrics map[string]metrics  // by daemon name
	procs   map[string]procStat // by daemon name
	selfCPU time.Duration
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeSnapshot(ctx context.Context, dep *deployment) (*snapshot, error) {
	s := &snapshot{at: time.Now(), metrics: make(map[string]metrics), procs: make(map[string]procStat), selfCPU: selfCPU()}
	for _, d := range dep.fleet.all() {
		m, err := d.scrape(ctx)
		if err != nil {
			return nil, err
		}
		s.metrics[d.Name] = m
		ps, err := readProcStat(d.PID())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		s.procs[d.Name] = ps
	}
	return s, nil
}

// delta sums, over the named daemons, how much a metric family grew between
// two snapshots.
func delta(a, b *snapshot, daemons []*daemon, family string, labels ...string) float64 {
	total := 0.0
	for _, d := range daemons {
		total += b.metrics[d.Name].sum(family, labels...) - a.metrics[d.Name].sum(family, labels...)
	}
	return total
}

func cpuDelta(a, b *snapshot, daemons []*daemon) time.Duration {
	var total time.Duration
	for _, d := range daemons {
		total += b.procs[d.Name].CPU - a.procs[d.Name].CPU
	}
	return total
}

// serverQuantiles reads the q-quantiles of the daemons' own request latency
// from the growth of their http_request_seconds buckets between two
// snapshots, interpolating linearly inside the bucket.
func serverQuantiles(a, b *snapshot, daemons []*daemon, service string, qs ...float64) []time.Duration {
	grown := make(map[float64]float64) // upper bound → cumulative count delta
	prefix := "http_request_seconds_bucket{"
	want := `service="` + service + `"`
	for _, d := range daemons {
		for k, v := range b.metrics[d.Name] {
			if !strings.HasPrefix(k, prefix) || !strings.Contains(k, want) {
				continue
			}
			i := strings.LastIndex(k, `le="`)
			if i < 0 {
				continue
			}
			le, err := strconv.ParseFloat(strings.TrimSuffix(k[i+4:], `"}`), 64)
			if err != nil {
				continue // +Inf parses; anything else is not a bound
			}
			grown[le] += v - a.metrics[d.Name][k]
		}
	}
	bounds := make([]float64, 0, len(grown))
	for le := range grown {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	out := make([]time.Duration, len(qs))
	if len(bounds) == 0 || grown[bounds[len(bounds)-1]] == 0 {
		return out
	}
	total := grown[bounds[len(bounds)-1]]
	for qi, q := range qs {
		rank := q * total
		lo, below := 0.0, 0.0
		for _, le := range bounds {
			if c := grown[le]; c >= rank {
				hi := le
				if math.IsInf(hi, 1) {
					hi = lo
				}
				frac := 0.0
				if c > below {
					frac = (rank - below) / (c - below)
				}
				out[qi] = time.Duration((lo + (hi-lo)*frac) * float64(time.Second))
				break
			}
			lo, below = le, grown[le]
		}
	}
	return out
}

// lagSampler watches ingest lag from outside while a window runs: every
// 100 ms it asks the log for its size and the first replica for its ingest
// checkpoint, and keeps the largest difference seen. (The replica's own
// certstore_ingest_lag_entries gauge is set just after each sync, when it is
// 0 by construction.)
func lagSampler(ctx context.Context, dep *deployment) (stop func() float64) {
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan float64, 1)
	go func() {
		maxLag := 0.0
		for {
			size, err := treeSize(ctx, dep.logURL())
			if m, merr := dep.replicas[0][0].scrape(ctx); err == nil && merr == nil {
				maxLag = math.Max(maxLag, float64(size)-m["certstore_checkpoint_next_index"])
			}
			select {
			case <-ctx.Done():
				done <- maxLag
				return
			case <-time.After(100 * time.Millisecond):
			}
		}
	}()
	return func() float64 { cancel(); return <-done }
}

// openProbe offers the workload's read mix open-loop at rate for d. Latency
// is taken from each request's scheduled start (loadgen's histogram), and
// lateness is how long after its schedule a request actually began: the
// k-th request to start was due k intervals after the run began. Every
// request is recorded in rec, so that one that fails fails the run.
func openProbe(ctx context.Context, w *workload, seed uint64, dep *deployment, ks *keyspace, rate float64, d time.Duration, rec *recorder) (p99, lateP99 time.Duration, err error) {
	hc := newLoadClient(clients)
	defer hc.CloseIdleConnections()
	ops, err := readOps(w, seed^0x6f70656e, dep.route(), ks, hc, rec, nil) // "open"
	if err != nil {
		return 0, 0, err
	}
	interval := time.Duration(float64(time.Second) / rate)
	var k atomic.Int64
	var mu sync.Mutex
	var late []time.Duration
	var began time.Time
	for i := range ops {
		do := ops[i].Do
		ops[i].Do = func(ctx context.Context) (int64, error) {
			due := began.Add(time.Duration(k.Add(1)-1) * interval)
			l := time.Since(due)
			mu.Lock()
			late = append(late, max(l, 0))
			mu.Unlock()
			return do(ctx)
		}
	}
	began = time.Now()
	res, err := loadgen.Run(ctx, loadgen.Config{Ops: ops, Mode: loadgen.ModeOpen, QPS: rate,
		Duration: d, Workers: clients, Seed: seed})
	if err != nil {
		return 0, 0, err
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	return res.Total.Latency.Quantile(0.99), quantile(late, 0.99), nil
}

// hopProbe measures what the gateway adds to a request: one client sends the
// same seeded keys first through stalegw and then straight to the first
// replica of each key's owning slice, and the medians are subtracted. Every
// request is added to probes, so that one that fails fails the run.
func hopProbe(ctx context.Context, w *workload, seed uint64, dep *deployment, o *oracle, ks *keyspace, d time.Duration, probes *recorder) (time.Duration, error) {
	ring, err := shard.NewRing(len(dep.replicas), shard.DefaultVNodes)
	if err != nil {
		return 0, err
	}
	owner := func(path string) string {
		slice := 0
		switch {
		case strings.HasPrefix(path, "/v1/cert/"):
			if c := o.byFP[strings.TrimPrefix(path, "/v1/cert/")]; c != nil {
				slice = shard.CertOwners(ring, o.corpus.PSL(), c)[0]
			}
		default:
			dom := strings.Split(strings.TrimPrefix(path, "/v1/domain/"), "/")[0]
			slice = ring.Lookup(shard.KeyForDomain(dom))
		}
		return "http://" + dep.replicas[slice][0].Addr
	}
	medianVia := func(route func(path string) string) (time.Duration, error) {
		hc := newLoadClient(1)
		defer hc.CloseIdleConnections()
		rec := newRecorder()
		ops, err := readOps(w, seed^0x686f70, route, ks, hc, rec, nil) // "hop": the same key sequence both times
		if err != nil {
			return 0, err
		}
		if _, err := loadgen.Run(ctx, loadgen.Config{Ops: ops, Mode: loadgen.ModeClosed, Duration: d, Workers: 1, Seed: seed}); err != nil {
			return 0, err
		}
		probes.add(rec)
		return rec.stats(1).P50, nil
	}
	via, err := medianVia(dep.route())
	if err != nil {
		return 0, err
	}
	direct, err := medianVia(owner)
	if err != nil {
		return 0, err
	}
	return via - direct, nil
}
