package obsagg

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"stalecert/internal/obs"
)

func TestParseTargets(t *testing.T) {
	targets, err := ParseTargets("ctlogd=http://127.0.0.1:9090, crld=http://127.0.0.1:9091")
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 2 || targets[0].Job != "ctlogd" || targets[1].Job != "crld" {
		t.Fatalf("targets = %+v", targets)
	}
	if targets[0].Instance() != "127.0.0.1:9090" {
		t.Errorf("instance = %q", targets[0].Instance())
	}
	for _, bad := range []string{"", "nourl", "=http://x"} {
		if _, err := ParseTargets(bad); err == nil {
			t.Errorf("ParseTargets(%q) succeeded", bad)
		}
	}
}

func TestAggregatorFederatesAndRelabels(t *testing.T) {
	remote := obs.NewRegistry()
	remote.Counter("http_requests_total", "service", "ctlogd", "route", "/ct/v1/get-sth", "code", "2xx").Add(5)
	ts := httptest.NewServer(obs.HandlerFor(remote, obs.NewHealth()))
	defer ts.Close()

	agg := &Aggregator{
		Targets:  []Target{{Job: "ctlogd", URL: ts.URL}},
		Registry: obs.NewRegistry(),
		SelfJob:  "obsagg",
	}
	if err := agg.Ready(context.Background()); err == nil {
		t.Error("aggregator ready before any scrape round")
	}
	agg.ScrapeOnce(context.Background())
	if err := agg.Ready(context.Background()); err != nil {
		t.Errorf("aggregator not ready after a round: %v", err)
	}

	u, _ := url.Parse(ts.URL)
	fed := agg.Federated()
	var found, selfFound bool
	for _, s := range fed {
		if s.Name == "http_requests_total" && obs.LabelValue(s, "job") == "ctlogd" {
			found = true
			if obs.LabelValue(s, "instance") != u.Host {
				t.Errorf("instance = %q, want %q", obs.LabelValue(s, "instance"), u.Host)
			}
			if s.Value != 5 {
				t.Errorf("federated value = %v, want 5", s.Value)
			}
		}
		if obs.LabelValue(s, "job") == "obsagg" && s.Name == "obsagg_scrapes_total" {
			selfFound = true
		}
	}
	if !found {
		t.Fatalf("scraped series missing from federation: %+v", fed)
	}
	if !selfFound {
		t.Error("SelfJob series missing from federation")
	}

	// The federated exposition itself must parse (federation is composable).
	var buf bytes.Buffer
	obs.WriteSamples(&buf, fed)
	if _, err := obs.ParseProm(&buf); err != nil {
		t.Fatalf("federated exposition does not re-parse: %v", err)
	}
}

func TestAggregatorScrapeFailureKeepsLastGoodAndAlerts(t *testing.T) {
	remote := obs.NewRegistry()
	remote.Counter("up_total").Inc()
	ts := httptest.NewServer(obs.HandlerFor(remote, obs.NewHealth()))

	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	agg := &Aggregator{
		Targets:  []Target{{Job: "ctlogd", URL: ts.URL}},
		Registry: obs.NewRegistry(),
		Logger:   logger,
	}
	agg.ScrapeOnce(context.Background())
	ts.Close() // target goes down
	agg.ScrapeOnce(context.Background())

	var kept bool
	for _, s := range agg.Federated() {
		if s.Name == "up_total" {
			kept = true
		}
	}
	if !kept {
		t.Error("last good series dropped after scrape failure")
	}
	if !strings.Contains(logBuf.String(), "scrape failed") {
		t.Errorf("no scrape-failure alert in logs: %s", logBuf.String())
	}

	snap := agg.Registry.Snapshot()
	var okCount, errCount float64
	for _, s := range snap {
		if s.Name == "obsagg_scrapes_total" {
			switch obs.LabelValue(s, "outcome") {
			case "ok":
				okCount = s.Value
			case "error":
				errCount = s.Value
			}
		}
	}
	if okCount != 1 || errCount != 1 {
		t.Errorf("scrape outcomes ok=%v error=%v, want 1/1", okCount, errCount)
	}
}

func TestAggregatorErrorRateAlert(t *testing.T) {
	remote := obs.NewRegistry()
	remote.Counter("http_requests_total", "service", "crld", "route", "/crl/{ca}", "code", "2xx").Add(1)
	remote.Counter("http_requests_total", "service", "crld", "route", "/crl/{ca}", "code", "5xx").Add(9)
	ts := httptest.NewServer(obs.HandlerFor(remote, obs.NewHealth()))
	defer ts.Close()

	var logBuf bytes.Buffer
	agg := &Aggregator{
		Targets:            []Target{{Job: "crld", URL: ts.URL}},
		Registry:           obs.NewRegistry(),
		Logger:             slog.New(slog.NewTextHandler(&logBuf, nil)),
		ErrorRateThreshold: 0.5,
	}
	agg.ScrapeOnce(context.Background())
	if !strings.Contains(logBuf.String(), "error rate above threshold") {
		t.Errorf("no error-rate alert in logs: %s", logBuf.String())
	}
}

func TestAggregatorFleetSummary(t *testing.T) {
	remote := obs.NewRegistry()
	remote.Counter("x_total").Inc()
	ts := httptest.NewServer(obs.HandlerFor(remote, obs.NewHealth()))
	defer ts.Close()

	agg := &Aggregator{
		Targets:  []Target{{Job: "ctlogd", URL: ts.URL}},
		Registry: obs.NewRegistry(),
	}
	agg.ScrapeOnce(context.Background())

	fleetSrv := httptest.NewServer(agg.Handler())
	defer fleetSrv.Close()
	resp, err := http.Get(fleetSrv.URL + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"1 targets", "ctlogd", "up"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("fleet summary missing %q:\n%s", want, body)
		}
	}
}
