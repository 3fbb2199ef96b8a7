// Package fleettest is the one launcher of the fleet the acceptance suite
// asserts on (DESIGN §16): a seeded ctlogd and crld, a reference staleapid,
// N×R staleapid replicas behind a stalegw, an obsagg over them. Start runs
// it in this process, wired as the cmd/ mains wire the same libraries, and
// is where behaviour is asserted; StartBinaries spawns the built daemons and
// covers only the mains' flag wiring. Serve and Spawn start one member.
package fleettest

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stalecert/internal/certstore"
	"stalecert/internal/obs"
	"stalecert/internal/obsagg"
)

// Member is one daemon.
type Member struct {
	Name  string // the obsagg job it is scraped as: "ctlogd", "staleapid-1-0", "stalegw"
	URL   string // service listener
	Debug string // debug listener: /metrics, /readyz, /v1/traces, /v1/logs, /v1/breakers

	// An in-process member's private surface; nil on a spawned binary. What
	// a library resolves from obs.Default() itself (stalegw_*) stays shared.
	Reg    *obs.Registry
	Spans  *obs.SpanStore
	Logs   *obs.LogRing
	Health *obs.Health
	Store  *certstore.Store // an in-process staleapid's certificates

	t       testing.TB
	handler atomic.Pointer[http.Handler] // in-process: what Handle, Wrap and Slow act on
	slow    atomic.Int64
	servers []*httptest.Server
	cmd     *exec.Cmd     // a spawned binary
	exited  chan struct{} // closed once cmd has been reaped
}

// Serve starts an in-process member behind obs.Middleware on a private
// surface whose span store keeps traceSample of the healthy traces. Until
// Handle is called it answers 404.
func Serve(t testing.TB, name string, traceSample float64) *Member {
	service, _, _ := strings.Cut(name, "-") // staleapid-1-0 is a staleapid
	m := &Member{Name: name, t: t, Reg: obs.NewRegistry(), Spans: obs.NewSpanStore(512, traceSample, 0),
		Logs: obs.NewLogRing(256), Health: obs.NewHealth()}
	m.Spans.Registry, m.Logs.Registry = m.Reg, m.Reg
	m.Handle(http.NotFoundHandler())
	api := obs.MiddlewareSpans(m.Reg, m.Spans, service, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d := time.Duration(m.slow.Load()); d > 0 {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(d):
			}
		}
		(*m.handler.Load()).ServeHTTP(w, r)
	}))
	// The more specific patterns win over HandlerFor's process-wide ones.
	debug := http.NewServeMux()
	debug.Handle("/", obs.HandlerFor(m.Reg, m.Health))
	debug.Handle("GET /v1/traces", m.Spans.Handler())
	debug.Handle("GET /v1/traces/{id}", m.Spans.Handler())
	debug.Handle("GET /v1/logs", m.Logs.Handler())
	m.servers = []*httptest.Server{httptest.NewServer(api), httptest.NewServer(debug)}
	m.URL, m.Debug = m.servers[0].URL, m.servers[1].URL
	t.Cleanup(m.Kill)
	return m
}

// Handle sets what the in-process member serves.
func (m *Member) Handle(h http.Handler) { m.handler.Store(&h) }

// Wrap puts mw in front of the in-process member's handler, inside its
// obs.Middleware: the member's own metrics and spans record the fault.
func (m *Member) Wrap(mw func(http.Handler) http.Handler) { m.Handle(mw(*m.handler.Load())) }

// Slow delays every request the in-process member serves by d; 0 lifts it.
func (m *Member) Slow(d time.Duration) { m.slow.Store(int64(d)) }

// Kill stops the member at once; a second Kill is a no-op.
func (m *Member) Kill() {
	if m.cmd != nil {
		_ = m.cmd.Process.Kill() // errors once the child has exited, which is the goal
		<-m.exited
	}
	for _, s := range m.servers {
		s.CloseClientConnections()
		s.Close()
	}
}

// Get fetches url, failing the test on a transport error.
func Get(t testing.TB, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp, string(body)
}

// Get fetches a path from the member's service listener.
func (m *Member) Get(path string) (*http.Response, string) {
	m.t.Helper()
	return Get(m.t, m.URL+path)
}

// Metrics is one parsed /metrics exposition.
type Metrics []obs.Sample

// Scrape reads the member's /metrics over its debug listener.
func (m *Member) Scrape() Metrics {
	m.t.Helper()
	resp, body := Get(m.t, m.Debug+"/metrics")
	samples, err := obs.ParseProm(strings.NewReader(body))
	if resp.StatusCode != http.StatusOK || err != nil {
		m.t.Fatalf("scrape %s: status %d, %v", m.Name, resp.StatusCode, err)
	}
	return samples
}

// Sum adds the family's counters or gauges whose label set contains every
// given `key="value"` fragment.
func (ms Metrics) Sum(family string, labels ...string) float64 {
	total := 0.0
	for _, s := range ms {
		lacks := func(l string) bool { return !strings.Contains(s.Labels, l) }
		if s.Name == family && !slices.ContainsFunc(labels, lacks) {
			total += s.Value
		}
	}
	return total
}

// Aggregate returns an obsagg.Aggregator scraping each member's debug
// listener under its name as job, and the URL of its /fleet surface. It
// scrapes only when the test calls ScrapeOnce, which may set thresholds first.
func Aggregate(t testing.TB, members ...*Member) (*obsagg.Aggregator, string) {
	agg := &obsagg.Aggregator{Registry: obs.NewRegistry(), Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	for _, m := range members {
		agg.Targets = append(agg.Targets, obsagg.Target{Job: m.Name, URL: m.Debug})
	}
	srv := httptest.NewServer(agg.Handler())
	t.Cleanup(srv.Close)
	return agg, srv.URL
}

// Until retries what every few milliseconds, failing the test with its last
// error after a minute: the bound on every wait of a set-up.
func Until(t testing.TB, what func() error) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for err := what(); err != nil; err = what() {
		if time.Now().After(deadline) {
			t.Fatalf("not within a minute: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
