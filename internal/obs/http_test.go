package obs

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

// promLine matches one Prometheus text-format sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[-+]?Inf|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)$`)

func populated() *Registry {
	r := NewRegistry()
	r.Counter("requests_total", "endpoint", "get-entries").Add(5)
	r.Gauge("queue_depth").Set(2.5)
	h := r.Histogram("latency_seconds", []float64{0.001, 0.1, 10})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(100)
	return r
}

func TestMetricsEndpoint(t *testing.T) {
	srv := httptest.NewServer(HandlerFor(populated(), DefaultHealth()))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)

	for _, want := range []string{
		"# TYPE requests_total counter",
		`requests_total{endpoint="get-entries"} 5`,
		"# TYPE queue_depth gauge",
		"queue_depth 2.5",
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{le="0.001"} 1`,
		`latency_seconds_bucket{le="+Inf"} 3`,
		"latency_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("invalid Prometheus line %q", line)
		}
	}
}

func TestPprofMounted(t *testing.T) {
	srv := httptest.NewServer(HandlerFor(NewRegistry(), DefaultHealth()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status = %d", resp.StatusCode)
	}
}

func TestStartDebug(t *testing.T) {
	r := populated()
	addr, shutdown, err := StartDebugServer("127.0.0.1:0", HandlerFor(r, DefaultHealth()))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(context.Background())
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "requests_total") {
		t.Errorf("debug server metrics missing counter:\n%s", body)
	}
	if err := shutdown(context.Background()); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}
