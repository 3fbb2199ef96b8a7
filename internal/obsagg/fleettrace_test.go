package obsagg

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stalecert/internal/obs"
)

// fakeDaemon is one scrapeable target: a private registry plus a private span
// store served on /metrics and /v1/traces, like a real daemon's debug surface.
func fakeDaemon(t *testing.T) (*obs.Registry, *obs.SpanStore, *httptest.Server) {
	t.Helper()
	reg := obs.NewRegistry()
	st := obs.NewSpanStore(32, 1, 0)
	st.Registry = reg
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		obs.WriteProm(w, reg)
	})
	mux.Handle("GET /v1/traces", st.Handler())
	mux.Handle("GET /v1/traces/{id}", st.Handler())
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return reg, st, srv
}

func TestAggregatorStitchesCrossDaemonTrace(t *testing.T) {
	_, upstream, upstreamSrv := fakeDaemon(t) // e.g. staleapid: originates
	_, downstream, downstreamSrv := fakeDaemon(t)

	base := time.Now()
	trace := "aaaabbbbccccddddaaaabbbbccccdddd"
	// staleapid handled a request (root), fanned out one client call; the
	// request took traceSlow end to end.
	upstream.Record(obs.SpanRecord{TraceID: trace, SpanID: "s-client", ParentID: "s-root",
		Service: "staleapid", Name: "GET /ct/v1/get-sth", Kind: obs.SpanClient,
		Start: base.Add(100 * time.Millisecond), Duration: 800 * time.Millisecond, Status: 200})
	upstream.RecordRoot(obs.SpanRecord{TraceID: trace, SpanID: "s-root",
		Service: "staleapid", Name: "GET /v1/domain/{e2ld}/staleness", Kind: obs.SpanServer,
		Route: "/v1/domain/{e2ld}/staleness", Start: base, Duration: traceSlow, Status: 200})
	// ctlogd saw that client call as its own server request.
	downstream.RecordRoot(obs.SpanRecord{TraceID: trace, SpanID: "c-root", ParentID: "s-client",
		Service: "ctlogd", Name: "GET /ct/v1/get-sth", Kind: obs.SpanServer,
		Route: "/ct/v1/get-sth", Start: base.Add(200 * time.Millisecond), Duration: 600 * time.Millisecond, Status: 200})

	var logBuf bytes.Buffer
	agg := &Aggregator{
		Targets: []Target{
			{Job: "staleapid", URL: upstreamSrv.URL},
			{Job: "ctlogd", URL: downstreamSrv.URL},
		},
		Registry: obs.NewRegistry(),
		Logger:   slog.New(slog.NewTextHandler(&logBuf, nil)),
	}
	agg.ScrapeOnce(context.Background())

	tr, ok := agg.FleetTrace(trace)
	if !ok {
		t.Fatal("fleet trace missing after scrape")
	}
	if len(tr.Spans) != 3 {
		t.Fatalf("stitched %d spans, want 3: %+v", len(tr.Spans), tr.Spans)
	}
	if len(tr.Services) != 2 || tr.Services[0] != "ctlogd" || tr.Services[1] != "staleapid" {
		t.Fatalf("services = %v", tr.Services)
	}
	if tr.Root != "staleapid GET /v1/domain/{e2ld}/staleness" {
		t.Fatalf("fleet root = %q, want the originating hop's root", tr.Root)
	}
	roots := obs.BuildSpanTree(tr.Spans)
	if len(roots) != 1 {
		t.Fatalf("stitched tree has %d roots, want 1", len(roots))
	}
	if roots[0].SpanID != "s-root" ||
		len(roots[0].Children) != 1 || roots[0].Children[0].SpanID != "s-client" ||
		len(roots[0].Children[0].Children) != 1 || roots[0].Children[0].Children[0].SpanID != "c-root" {
		t.Fatalf("tree linkage wrong: %+v", roots[0])
	}

	// Slow alert fired exactly once for this trace, even across re-scrapes.
	agg.ScrapeOnce(context.Background())
	if n := strings.Count(logBuf.String(), "slow trace"); n != 1 {
		t.Fatalf("slow-trace alert fired %d times, want 1:\n%s", n, logBuf.String())
	}

	// Re-scraping did not duplicate spans.
	tr, _ = agg.FleetTrace(trace)
	if len(tr.Spans) != 3 {
		t.Fatalf("re-scrape duplicated spans: %d", len(tr.Spans))
	}

	// The HTTP surface serves the stitched tree.
	h := httptest.NewServer(agg.Handler())
	defer h.Close()
	resp, err := h.Client().Get(h.URL + "/fleet/traces/" + trace)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/fleet/traces/{id} status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{`"s-root"`, `"c-root"`, `"staleapid"`, `"ctlogd"`} {
		if !strings.Contains(body, want) {
			t.Errorf("/fleet/traces/{id} missing %s:\n%s", want, body)
		}
	}
}

func TestAggregatorToleratesTracelessTargets(t *testing.T) {
	// A target without /v1/traces (older build / tracing disabled) answers
	// 404; the metrics scrape must still succeed with no trace alert noise.
	reg := obs.NewRegistry()
	reg.Counter("up_total").Inc()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) { obs.WriteProm(w, reg) })
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var logBuf bytes.Buffer
	agg := &Aggregator{
		Targets:  []Target{{Job: "old", URL: srv.URL}},
		Registry: obs.NewRegistry(),
		Logger:   slog.New(slog.NewTextHandler(&logBuf, nil)),
	}
	agg.ScrapeOnce(context.Background())
	if got := len(agg.FleetTraces(obs.TraceFilter{})); got != 0 {
		t.Fatalf("trace count %d from traceless target", got)
	}
	if strings.Contains(logBuf.String(), "trace scrape failed") {
		t.Fatalf("404 traces endpoint raised an alert:\n%s", logBuf.String())
	}
	found := false
	for _, s := range agg.Federated() {
		if s.Name == "up_total" {
			found = true
		}
	}
	if !found {
		t.Fatal("metrics scrape lost alongside missing traces endpoint")
	}
}

func TestFleetTraceBufferBounded(t *testing.T) {
	agg := &Aggregator{Registry: obs.NewRegistry(),
		Logger: slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil))}
	var traces []obs.TraceRecord
	for i := 0; i < fleetTraceBuffer+7; i++ {
		id := fmt.Sprintf("trace-%d", i)
		traces = append(traces, obs.TraceRecord{TraceID: id, Root: "svc x", Start: time.Now(),
			Spans: []obs.SpanRecord{{TraceID: id, SpanID: id + "-s", Service: "svc"}}})
	}
	agg.mergeTraces(traces)
	if got := len(agg.FleetTraces(obs.TraceFilter{})); got != fleetTraceBuffer {
		t.Fatalf("fleet buffer holds %d traces, capacity %d", got, fleetTraceBuffer)
	}
	if _, ok := agg.FleetTrace("trace-6"); ok {
		t.Fatal("oldest fleet trace survived eviction")
	}
	if _, ok := agg.FleetTrace("trace-7"); !ok {
		t.Fatal("oldest retained fleet trace missing")
	}
	if _, ok := agg.FleetTrace(fmt.Sprintf("trace-%d", fleetTraceBuffer+6)); !ok {
		t.Fatal("newest fleet trace missing")
	}
}
