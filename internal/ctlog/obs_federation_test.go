package ctlog

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"stalecert/internal/obs"
	"stalecert/internal/obsagg"
	"stalecert/internal/resil"
	"stalecert/internal/x509sim"
)

// syncBuffer is a concurrency-safe log sink: the server handler and the test
// goroutine both write through slog while requests are in flight.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestObservabilityFederationEndToEnd is the acceptance path for the
// observability layer: a ctlogd-style daemon (real CT log server behind
// obs.Middleware, debug surface with a readiness probe) and an obsagg-style
// aggregator run on loopback, a client scrapes the log through an
// instrumented transport, and the test asserts
//
//	(a) the client and server access-log records carry the same request ID,
//	(b) the server RED metrics and the client per-peer metrics both appear in
//	    the federated /metrics with the right job/instance labels, and
//	(c) the daemon's /readyz flips 503 -> 200 once its probe passes.
func TestObservabilityFederationEndToEnd(t *testing.T) {
	// Capture every slog record (the client transport logs at Debug).
	logs := &syncBuffer{}
	oldLogger := slog.Default()
	slog.SetDefault(slog.New(slog.NewJSONHandler(logs, &slog.HandlerOptions{Level: slog.LevelDebug})))
	defer slog.SetDefault(oldLogger)

	// ctlogd-style daemon: the process registry, where the tailer's client
	// metrics land too, readiness probe, middleware.
	reg := obs.Default()
	health := obs.NewHealth()
	ready := obs.NewReady("ct tree not yet seeded")
	health.Register("ct-tree-loaded", ready.Probe)

	l := New("fed-test-log", Shard{})
	srv := NewServer(l)
	srv.SetNow(100)
	ctSrv := httptest.NewServer(obs.Middleware(reg, "ctlogd", srv.Handler()))
	defer ctSrv.Close()
	debugSrv := httptest.NewServer(obs.HandlerFor(reg, health))
	defer debugSrv.Close()

	// (c) readiness holds traffic until the tree is seeded.
	if code := getStatus(t, debugSrv.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before seeding = %d, want 503", code)
	}
	cert, err := x509sim.New(1, 1, 1, []string{"fed.example.com"}, 0, 400)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AddChain(cert, 90); err != nil {
		t.Fatal(err)
	}
	ready.OK()
	if code := getStatus(t, debugSrv.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after seeding = %d, want 200", code)
	}

	// Scrape the log through an instrumented client, as a tailer does.
	client := NewClientWithOptions(ctSrv.URL, nil, resil.Options{Service: "ct-tail"})
	entries, _, err := client.Scrape(context.Background(), ScrapeOptions{VerifyInclusion: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(entries))
	}

	// (a) client/server log correlation: every server access-log record's
	// request ID must have been sent by a client record in the same trace.
	clientIDs := map[string]bool{}
	serverIDs := []string{}
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			continue
		}
		if rec["msg"] != "http request" {
			continue
		}
		id, _ := rec["request_id"].(string)
		if id == "" {
			t.Fatalf("access-log record without request_id: %s", line)
		}
		if rec["direction"] == "client" {
			clientIDs[id] = true
		} else if rec["service"] == "ctlogd" {
			serverIDs = append(serverIDs, id)
		}
	}
	if len(clientIDs) == 0 || len(serverIDs) == 0 {
		t.Fatalf("missing log records: client=%d server=%d\n%s", len(clientIDs), len(serverIDs), logs.String())
	}
	for _, id := range serverIDs {
		if !clientIDs[id] {
			t.Errorf("server request_id %s never logged by the client", id)
		}
	}

	// obsagg-style aggregator federates the daemon's debug surface.
	agg := &obsagg.Aggregator{
		Targets:  []obsagg.Target{{Job: "ctlogd", URL: debugSrv.URL}},
		Registry: obs.NewRegistry(),
		SelfJob:  "obsagg",
	}
	aggHealth := obs.NewHealth()
	aggHealth.Register("first-scrape-round", agg.Ready)
	aggDebug := httptest.NewServer(obs.HandlerFor(agg.Registry, aggHealth))
	defer aggDebug.Close()
	fleetSrv := httptest.NewServer(agg.Handler())
	defer fleetSrv.Close()

	// (c) again for obsagg: not ready until a scrape round completes.
	if code := getStatus(t, aggDebug.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("obsagg readyz before first round = %d, want 503", code)
	}
	agg.ScrapeOnce(context.Background())
	if code := getStatus(t, aggDebug.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("obsagg readyz after first round = %d, want 200", code)
	}

	// (b) federated /metrics carries both server RED and client per-peer
	// series under the scraped job/instance.
	resp, err := http.Get(fleetSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	fed, err := obs.ParseProm(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("federated exposition unparseable: %v\n%s", err, body)
	}
	u, _ := url.Parse(debugSrv.URL)
	ctURL, _ := url.Parse(ctSrv.URL)
	var red, perPeer bool
	for _, s := range fed {
		if obs.LabelValue(s, "job") != "ctlogd" || obs.LabelValue(s, "instance") != u.Host {
			continue
		}
		if s.Name == "http_requests_total" && obs.LabelValue(s, "service") == "ctlogd" &&
			obs.LabelValue(s, "code") == "2xx" && s.Value > 0 {
			red = true
		}
		if s.Name == "http_client_requests_total" && obs.LabelValue(s, "service") == "ct-tail" &&
			obs.LabelValue(s, "peer") == ctURL.Host && s.Value > 0 {
			perPeer = true
		}
	}
	if !red {
		t.Error("federated metrics missing server RED series for job=ctlogd")
	}
	if !perPeer {
		t.Error("federated metrics missing client per-peer series for job=ctlogd")
	}
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}
