// Package obsagg is the fleet half of the observability stack, linked only
// by cmd/obsagg: an Aggregator that scrapes every daemon's /metrics,
// /v1/traces and /v1/logs, federates them under job/instance labels, keeps
// the samples in a retention-bounded TSDB, answers PromQL-style queries over
// it at /fleet/query, and evaluates recording and alert rules each round.
// The per-daemon library it scrapes is internal/obs.
package obsagg

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"stalecert/internal/obs"
	"stalecert/internal/resil"
)

// Target is one daemon an Aggregator scrapes: Job names the service class
// (ctlogd, crld, ...) and URL is the base of its debug listener; /metrics is
// appended.
type Target struct {
	Job string
	URL string
}

// Instance derives the instance label (host:port) from the target URL.
func (t Target) Instance() string {
	if u, err := url.Parse(t.URL); err == nil && u.Host != "" {
		return u.Host
	}
	return t.URL
}

// ParseTargets parses the -targets flag syntax: a comma-separated list of
// job=URL entries, e.g. "ctlogd=http://127.0.0.1:9090,crld=http://127.0.0.1:9091".
func ParseTargets(spec string) ([]Target, error) {
	var out []Target
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		job, rawURL, ok := strings.Cut(part, "=")
		if !ok || job == "" || rawURL == "" {
			return nil, fmt.Errorf("obsagg: bad target %q (want job=URL)", part)
		}
		if _, err := url.Parse(rawURL); err != nil {
			return nil, fmt.Errorf("obsagg: bad target URL %q: %w", rawURL, err)
		}
		out = append(out, Target{Job: job, URL: rawURL})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("obsagg: no targets in %q", spec)
	}
	return out, nil
}

// targetState is the last scrape outcome for one target.
type targetState struct {
	target    Target
	lastOK    time.Time
	lastTry   time.Time
	lastErr   error
	series    int
	successes uint64
	failures  uint64
}

// Aggregator federates many daemons' metrics: each scrape round fetches
// every target's /metrics, parses it, adds job/instance labels, and replaces
// that target's series in the merged view. Scrape failures keep the previous
// round's series (marking the target down in the fleet summary) and raise a
// slog alert, as does any job whose server error rate crosses
// ErrorRateThreshold.
type Aggregator struct {
	Targets []Target
	// Client performs the scrapes; nil uses an instrumented client on reg.
	Client *http.Client
	// Registry receives the aggregator's own scrape metrics (nil: Default()).
	Registry *obs.Registry
	// Logger receives scrape-failure and error-rate alerts (nil: slog.Default()).
	Logger *slog.Logger
	// ErrorRateThreshold is the 5xx/total fraction per job above which an
	// alert fires (0 disables).
	ErrorRateThreshold float64
	// SelfJob, when non-empty, merges Registry's own snapshot into the
	// federated view under this job name without an HTTP round trip.
	SelfJob string
	// TraceSlow, when > 0, logs a one-shot "slow trace" alert for any
	// stitched fleet trace whose end-to-end duration reaches it.
	TraceSlow time.Duration
	// TraceBuffer bounds stitched traces retained in the fleet view
	// (<= 0 uses DefaultFleetTraceBuffer).
	TraceBuffer int
	// AlertRearm is the quiet period after which per-trace slow alerts,
	// per-job SLO burn alerts and error-burst alerts may fire again (0: fire
	// once and stay silenced).
	AlertRearm time.Duration
	// FleetLogBuffer bounds merged log records retained in the fleet view
	// (<= 0 uses DefaultFleetLogBuffer).
	FleetLogBuffer int
	// ErrorBurstThreshold is the per-job error-log rate (records/second,
	// from the federated log_records_total counters) above which a fleet
	// error-burst alert fires (0 disables).
	ErrorBurstThreshold float64
	// TSDB stores every federation round's samples as queryable history
	// (nil: a default-configured TSDB is created on first use).
	TSDB *TSDB
	// RecordingRules are evaluated each round, in order, and their results
	// appended to the TSDB under the rule name.
	RecordingRules []RecordingRule
	// AlertRules are user-defined alert rules evaluated each round after
	// the built-in families (error rate, SLO burn, error burst).
	AlertRules []AlertRule
	// Now overrides the clock for alert re-arm decisions (tests).
	Now func() time.Time

	mu         sync.RWMutex
	byJob      map[string][]obs.Sample // target key -> relabelled samples
	states     map[string]*targetState
	rounds     uint64
	traces     map[string]*fleetTrace // trace ID -> stitched fleet trace
	traceOrder []string
	fleetLogs  []obs.LogRecord // merged log records, time-ordered
	logStates  map[string]*logTargetState
	ruleAlerts map[string]time.Time // rule/key-labels -> last alert time
}

func (a *Aggregator) now() time.Time {
	if a.Now != nil {
		return a.Now()
	}
	return time.Now()
}

func (a *Aggregator) reg() *obs.Registry {
	if a.Registry != nil {
		return a.Registry
	}
	return obs.Default()
}

func (a *Aggregator) logger() *slog.Logger {
	if a.Logger != nil {
		return a.Logger
	}
	return slog.Default()
}

func (a *Aggregator) client() *http.Client {
	if a.Client != nil {
		return a.Client
	}
	return resil.NewHTTPClient(resil.Options{Service: "obsagg", Policy: resil.Policy{MaxAttempts: 1}})
}

// ScrapeOnce runs one scrape round over every target.
func (a *Aggregator) ScrapeOnce(ctx context.Context) {
	hc := a.client()
	began := time.Now()
	for _, t := range a.Targets {
		samples, err := a.scrapeTarget(ctx, hc, t)
		a.record(t, samples, err)
		traces, terr := scrapeJSON[obs.TraceRecord](ctx, a, hc, t, "/v1/traces?spans=1")
		if terr != nil {
			a.logger().Warn("trace scrape failed", "job", t.Job, "instance", t.Instance(), "err", terr)
		} else {
			a.mergeTraces(traces)
		}
		logs, lerr := a.scrapeLogs(ctx, hc, t)
		if lerr != nil {
			a.logger().Warn("log scrape failed", "job", t.Job, "instance", t.Instance(), "err", lerr)
		} else {
			a.mergeLogs(t, logs)
		}
	}
	if a.SelfJob != "" {
		self := a.reg().Snapshot()
		relabelled := make([]obs.Sample, 0, len(self))
		for _, s := range self {
			rs, err := obs.WithLabels(s, "job", a.SelfJob, "instance", "self")
			if err != nil {
				continue
			}
			relabelled = append(relabelled, rs)
		}
		a.mu.Lock()
		a.ensureMaps()
		a.byJob[a.SelfJob+"\x00self"] = relabelled
		a.mu.Unlock()
		a.tsdb().Append(a.now(), relabelled)
	}
	a.mu.Lock()
	a.rounds++
	a.mu.Unlock()
	a.reg().Histogram("obsagg_round_seconds", nil).Observe(time.Since(began).Seconds())
	a.evalRules()
	db := a.tsdb()
	db.Prune(a.now())
	a.reg().Gauge("obsagg_tsdb_series").Set(float64(db.SeriesCount()))
	a.reg().Gauge("obsagg_tsdb_points").Set(float64(db.PointCount()))
	a.reg().Gauge("obsagg_tsdb_dropped_series").Set(float64(db.DroppedSeries()))
}

// scrape is the one HTTP exchange of a round: GET path on the target's debug
// listener under the scrape timeout, the 200 body handed to decode. optional
// says a 404 means the target has no such endpoint (an older build or a
// foreign target) and there is nothing to decode, rather than that the
// scrape failed.
func (a *Aggregator) scrape(ctx context.Context, hc *http.Client, t Target, path string, optional bool, decode func(io.Reader) error) error {
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, strings.TrimSuffix(t.URL, "/")+path, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if optional && resp.StatusCode == http.StatusNotFound {
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("obsagg: scrape %s%s: status %d", t.URL, path, resp.StatusCode)
	}
	if err := decode(resp.Body); err != nil {
		return fmt.Errorf("obsagg: decode %s%s: %w", t.URL, path, err)
	}
	return nil
}

// scrapeJSON scrapes an optional endpoint that answers one JSON array.
func scrapeJSON[T any](ctx context.Context, a *Aggregator, hc *http.Client, t Target, path string) ([]T, error) {
	var out []T
	err := a.scrape(ctx, hc, t, path, true, func(r io.Reader) error { return json.NewDecoder(r).Decode(&out) })
	return out, err
}

func (a *Aggregator) scrapeTarget(ctx context.Context, hc *http.Client, t Target) ([]obs.Sample, error) {
	var out []obs.Sample
	err := a.scrape(ctx, hc, t, "/metrics", false, func(r io.Reader) error {
		samples, err := obs.ParseProm(r)
		if err != nil {
			return err
		}
		out = make([]obs.Sample, 0, len(samples))
		for _, s := range samples {
			rs, err := obs.WithLabels(s, "job", t.Job, "instance", t.Instance())
			if err != nil {
				return err
			}
			out = append(out, rs)
		}
		return nil
	})
	return out, err
}

func (a *Aggregator) ensureMaps() {
	if a.byJob == nil {
		a.byJob = make(map[string][]obs.Sample)
	}
	if a.states == nil {
		a.states = make(map[string]*targetState)
	}
}

func (a *Aggregator) record(t Target, samples []obs.Sample, err error) {
	key := t.Job + "\x00" + t.Instance()
	outcome := "ok"
	db := a.tsdb()
	now := a.now()
	ghosted := false
	var downFor time.Duration
	a.mu.Lock()
	a.ensureMaps()
	st := a.states[key]
	if st == nil {
		st = &targetState{target: t}
		a.states[key] = st
	}
	st.lastTry = now
	st.lastErr = err
	if err == nil {
		st.lastOK = st.lastTry
		st.series = len(samples)
		st.successes++
		a.byJob[key] = samples
	} else {
		st.failures++
		outcome = "error"
		// A target that has been gone past the staleness window is a ghost:
		// drop its last-good series from the federated view and mark its
		// TSDB series stale, so instant answers stop freezing on its final
		// values while its history stays range-queryable until retention.
		if _, live := a.byJob[key]; live && !st.lastOK.IsZero() && now.Sub(st.lastOK) > db.staleAfter() {
			delete(a.byJob, key)
			st.series = 0
			ghosted = true
			downFor = now.Sub(st.lastOK)
		}
	}
	a.mu.Unlock()
	if err == nil {
		db.Append(now, samples)
	} else if ghosted {
		db.MarkStale("job", t.Job, "instance", t.Instance())
		a.logger().Warn("target vanished; marking series stale",
			"job", t.Job, "instance", t.Instance(), "down_for", downFor.String())
	}
	a.reg().Counter("obsagg_scrapes_total", "job", t.Job, "outcome", outcome).Inc()
	if err != nil {
		a.logger().Warn("scrape failed", "job", t.Job, "instance", t.Instance(), "err", err)
	}
}

// Run scrapes immediately and then on every interval tick until ctx is done.
func (a *Aggregator) Run(ctx context.Context, interval time.Duration) {
	a.ScrapeOnce(ctx)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			a.ScrapeOnce(ctx)
		}
	}
}

// Federated returns the merged fleet snapshot, sorted by family then labels.
func (a *Aggregator) Federated() []obs.Sample {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var out []obs.Sample
	for _, samples := range a.byJob {
		out = append(out, samples...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	return out
}

// DownTargets lists targets whose last scrape failed ("job@instance"),
// sorted — the fleet view still carries their previous round's series.
func (a *Aggregator) DownTargets() []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var down []string
	for _, st := range a.states {
		if st.lastErr != nil {
			down = append(down, st.target.Job+"@"+st.target.Instance())
		}
	}
	sort.Strings(down)
	return down
}

// Ready is a readiness probe with three-way semantics: unready (hard error)
// until the first scrape round completes, Degraded while any target's last
// scrape failed (the fleet view serves that target's last-good series), nil
// when every target answered.
func (a *Aggregator) Ready(context.Context) error {
	a.mu.RLock()
	rounds := a.rounds
	a.mu.RUnlock()
	if rounds == 0 {
		return fmt.Errorf("no scrape round completed yet")
	}
	if down := a.DownTargets(); len(down) > 0 {
		return obs.Degraded(fmt.Errorf("serving last-good series for down targets: %s",
			strings.Join(down, ", ")))
	}
	return nil
}

// Handler serves the fleet surface:
//
//	/metrics            the federated exposition (every job's series + job/instance labels)
//	/fleet              a plain-text per-target summary (up/down, last scrape, series)
//	/fleet/traces       stitched cross-daemon trace summaries (same filters
//	                    as the per-daemon /v1/traces)
//	/fleet/traces/{id}  one stitched trace as a full span tree, with the
//	                    correlated log lines from every daemon it touched
//	/fleet/logs         merged, time-ordered, instance-labelled log records
//	                    (same filters as the per-daemon /v1/logs, plus
//	                    ?job= and ?instance=)
//	/fleet/query        instant (?query=&time=) and range (?start=&end=&step=)
//	                    expression queries over the TSDB of every round's
//	                    samples — Prometheus-shaped JSON answers
//
// While any target is down, /metrics responses carry an X-Stale-Evidence
// header naming the targets whose series are served from the last good round.
func (a *Aggregator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /fleet/logs", a.handleFleetLogs)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if down := a.DownTargets(); len(down) > 0 {
			w.Header().Set(obs.StaleEvidenceHeader, strings.Join(down, ", "))
		}
		obs.WriteSamples(w, a.Federated())
	})
	mux.HandleFunc("GET /fleet", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		a.writeFleet(w)
	})
	mux.HandleFunc("GET /fleet/traces", a.handleFleetTraces)
	mux.HandleFunc("GET /fleet/traces/{id}", a.handleFleetTrace)
	mux.HandleFunc("GET /fleet/query", a.handleFleetQuery)
	return mux
}

func (a *Aggregator) writeFleet(w io.Writer) {
	a.mu.RLock()
	states := make([]*targetState, 0, len(a.states))
	for _, st := range a.states {
		states = append(states, st)
	}
	rounds := a.rounds
	a.mu.RUnlock()
	sort.Slice(states, func(i, j int) bool {
		if states[i].target.Job != states[j].target.Job {
			return states[i].target.Job < states[j].target.Job
		}
		return states[i].target.Instance() < states[j].target.Instance()
	})
	fmt.Fprintf(w, "fleet: %d targets, %d scrape rounds\n\n", len(states), rounds)
	fmt.Fprintf(w, "%-12s %-22s %-5s %8s %10s %10s  last error\n",
		"JOB", "INSTANCE", "UP", "SERIES", "SCRAPES", "FAILURES")
	for _, st := range states {
		up := "up"
		lastErr := ""
		if st.lastErr != nil {
			up = "down"
			lastErr = st.lastErr.Error()
		}
		fmt.Fprintf(w, "%-12s %-22s %-5s %8d %10d %10d  %s\n",
			st.target.Job, st.target.Instance(), up, st.series,
			st.successes+st.failures, st.failures, lastErr)
	}
}
