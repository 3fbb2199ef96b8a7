package obs_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"stalecert/internal/ctlog"
	"stalecert/internal/obs"
	"stalecert/internal/x509sim"
)

var promSampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[-+]?Inf|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)$`)

// TestMetricsAfterScrape is the acceptance check for the observability layer:
// run a CT log server, scrape it over HTTP, then fetch /metrics from a
// loopback debug server and verify the scrape showed up as a non-zero
// ctlog_entries_served_total in valid Prometheus text format.
func TestMetricsAfterScrape(t *testing.T) {
	l := ctlog.New("obs-it", ctlog.Shard{})
	for i := 0; i < 25; i++ {
		cert, err := x509sim.New(
			x509sim.SerialNumber(i+1), 1, x509sim.KeyID(i+1),
			[]string{fmt.Sprintf("it%03d.example.com", i)}, 10, 100,
		)
		if err != nil {
			t.Fatalf("cert: %v", err)
		}
		if _, err := l.AddChain(cert, 20); err != nil {
			t.Fatalf("add-chain: %v", err)
		}
	}
	logSrv := httptest.NewServer(ctlog.NewServer(l).Handler())
	defer logSrv.Close()

	bound, shutdown, err := obs.StartDebugServer("127.0.0.1:0", obs.HandlerFor(obs.Default(), obs.DefaultHealth()))
	if err != nil {
		t.Fatalf("StartDebugServer: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = shutdown(ctx)
	}()

	client := ctlog.NewClient(logSrv.URL, nil)
	entries, _, err := client.Scrape(context.Background(), ctlog.ScrapeOptions{})
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	if len(entries) != 25 {
		t.Fatalf("scraped %d entries, want 25", len(entries))
	}

	// /metrics over real loopback HTTP.
	body := httpGet(t, "http://"+bound+"/metrics")
	served := promValue(t, body, "ctlog_entries_served_total")
	if served < 25 {
		t.Errorf("ctlog_entries_served_total = %v, want >= 25", served)
	}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promSampleLine.MatchString(line) {
			t.Errorf("invalid Prometheus sample line: %q", line)
		}
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return string(raw)
}

// promValue extracts the sample value for an unlabelled metric name.
func promValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("metric %s not found in /metrics output", name)
	return 0
}
