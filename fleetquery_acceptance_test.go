package stalecert_test

// Fleet-query acceptance: the ISSUE's end-to-end criteria for the obsagg
// time-series engine. A loopback fleet (ctlogd + staleapid stand-ins) runs
// under a seeded open-loop load while the aggregator federates on a short
// cadence; afterwards /fleet/query must answer (1) a rate() within 15% of
// the client-observed QPS, (2) a histogram_quantile(0.99) within bucket
// resolution of the client p99, (3) an injected error-log burst must fire
// the rules-engine alert under the legacy counter name with legacy re-arm
// semantics, and (4) killing a daemon must mark its series stale — gone
// from instant answers, history still selectable.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"regexp"
	"strconv"
	"testing"
	"time"

	"stalecert/internal/fleettest"
	"stalecert/internal/loadgen"
	"stalecert/internal/obs"
	"stalecert/internal/obsagg"
)

// fleetVector runs one instant query against /fleet/query and decodes the
// vector answer.
func fleetVector(t *testing.T, aggURL, expr string) []struct {
	Metric map[string]string `json:"metric"`
	Value  [2]any            `json:"value"`
} {
	t.Helper()
	resp, err := http.Get(aggURL + "/fleet/query?query=" + url.QueryEscape(expr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query %q: status %d: %s", expr, resp.StatusCode, body)
	}
	var out struct {
		Status string `json:"status"`
		Data   struct {
			ResultType string `json:"resultType"`
			Result     []struct {
				Metric map[string]string `json:"metric"`
				Value  [2]any            `json:"value"`
			} `json:"result"`
		} `json:"data"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("query %q: bad JSON %s: %v", expr, body, err)
	}
	if out.Status != "success" || out.Data.ResultType != "vector" {
		t.Fatalf("query %q: %s", expr, body)
	}
	return out.Data.Result
}

func vectorValue(t *testing.T, entry struct {
	Metric map[string]string `json:"metric"`
	Value  [2]any            `json:"value"`
}) float64 {
	t.Helper()
	s, ok := entry.Value[1].(string)
	if !ok {
		t.Fatalf("vector value not a string: %+v", entry.Value)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// bucketIdx maps a latency to its DurationBuckets index — "within bucket
// resolution" means the client and server quantiles land within one ×4
// bucket of each other.
func bucketIdx(secs float64) int {
	for i, b := range obs.DurationBuckets {
		if secs <= b {
			return i
		}
	}
	return len(obs.DurationBuckets)
}

func TestFleetQueryAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a multi-second load")
	}
	// ctlogd stand-in: serves the STH instantly.
	ctMux := http.NewServeMux()
	ctMux.HandleFunc("GET /ct/v1/get-sth", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"tree_size":17}`))
	})
	ct := fleettest.Serve(t, "ctlogd", 0)
	ct.Handle(ctMux)

	// staleapid stand-in: a fixed ~2ms of "work" keeps the server-side
	// latency histogram well inside one bucket, dominating client overhead.
	apiMux := http.NewServeMux()
	apiMux.HandleFunc("GET /v1/domain/{e2ld}/staleness", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		w.Write([]byte(`{"domain":"` + r.PathValue("e2ld") + `","stale":[]}`))
	})
	api := fleettest.Serve(t, "staleapid", 0)
	api.Handle(apiMux)

	agg, aggURL := fleettest.Aggregate(t, api, ct)
	agg.TSDB = &obsagg.TSDB{Retention: time.Minute, StaleAfter: time.Second}

	// Drive a deterministic open-loop load while federating every 250ms.
	hc := http.DefaultClient
	ops := []loadgen.Op{
		{Name: "staleness", Weight: 70, Do: func(ctx context.Context) (int64, error) {
			return loadGet(ctx, hc, api.URL+"/v1/domain/example.com/staleness")
		}},
		{Name: "sth", Weight: 30, Do: func(ctx context.Context) (int64, error) {
			return loadGet(ctx, hc, ct.URL+"/ct/v1/get-sth")
		}},
	}
	done := make(chan *loadgen.Result, 1)
	go func() {
		res, err := loadgen.Run(context.Background(), loadgen.Config{
			Ops: ops, Mode: loadgen.ModeOpen, QPS: 150,
			Duration: 4 * time.Second, Workers: 16, Seed: 1,
		})
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		done <- res
	}()
	rounds := 0
	var res *loadgen.Result
	ticker := time.NewTicker(250 * time.Millisecond)
	defer ticker.Stop()
waitLoad:
	for {
		select {
		case res = <-done:
			break waitLoad
		case <-ticker.C:
			agg.ScrapeOnce(context.Background())
			rounds++
		}
	}
	if res == nil {
		t.Fatal("load run failed")
	}
	agg.ScrapeOnce(context.Background()) // capture the final counters
	rounds++
	if rounds < 3 {
		t.Fatalf("only %d federation rounds during the run, want >= 3", rounds)
	}
	// The /fleet header agrees on the round count.
	fresp, err := http.Get(aggURL + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	header, _ := io.ReadAll(fresp.Body)
	fresp.Body.Close()
	m := regexp.MustCompile(`(\d+) scrape rounds`).FindSubmatch(header)
	if m == nil {
		t.Fatalf("/fleet header lacks a round count: %s", header)
	}
	if n, _ := strconv.Atoi(string(m[1])); n < rounds {
		t.Fatalf("/fleet reports %d rounds, drove %d", n, rounds)
	}

	// Criterion 1: rate() agrees with the client-observed QPS within 15%.
	stalenessQPS := float64(res.PerOp["staleness"].Count) / res.Elapsed.Seconds()
	vec := fleetVector(t, aggURL, `sum(rate(http_requests_total{job="staleapid"}[30s]))`)
	if len(vec) != 1 {
		t.Fatalf("rate query returned %d series, want 1", len(vec))
	}
	gotQPS := vectorValue(t, vec[0])
	if diff := math.Abs(gotQPS-stalenessQPS) / stalenessQPS; diff > 0.15 {
		t.Fatalf("fleet rate() = %.1f/s, client observed %.1f/s (%.0f%% off, want <= 15%%)",
			gotQPS, stalenessQPS, diff*100)
	}

	// Criterion 2: the fleet p99 lands within one histogram bucket of the p99
	// of the histogram it was computed from — staleapid's own
	// http_request_seconds. (A client-side p99 would not do: an open-loop
	// client's latency includes schedule delay the server never sees.)
	byLE := map[float64]float64{}
	for _, s := range api.Reg.Snapshot() {
		if s.Name != "http_request_seconds" {
			continue
		}
		for _, b := range s.Buckets {
			byLE[b.UpperBound] += float64(b.Count)
		}
	}
	var served []obs.QuantileBucket
	for le, n := range byLE {
		served = append(served, obs.QuantileBucket{Bound: le, Count: n})
	}
	serverP99, _ := obs.Quantile(0.99, served)
	vec = fleetVector(t, aggURL,
		`histogram_quantile(0.99, sum by (le) (rate(http_request_seconds_bucket{job="staleapid"}[30s])))`)
	if len(vec) != 1 {
		t.Fatalf("quantile query returned %d series, want 1", len(vec))
	}
	gotP99 := vectorValue(t, vec[0])
	if gotP99 <= 0 || math.IsNaN(gotP99) || math.IsInf(gotP99, 0) {
		t.Fatalf("fleet p99 = %v", gotP99)
	}
	if di := bucketIdx(gotP99) - bucketIdx(serverP99); di < -1 || di > 1 {
		t.Fatalf("fleet p99 %.4fs (bucket %d) vs server p99 %.4fs (bucket %d): more than one bucket apart",
			gotP99, bucketIdx(gotP99), serverP99, bucketIdx(serverP99))
	}

	// Criterion 3: an error-log burst fires the rules-engine alert under the
	// legacy counter name, once, and stays re-armed.
	burstCounter := func() uint64 {
		return agg.Registry.Counter("obsagg_error_burst_alerts_total", "job", "staleapid").Value()
	}
	logBurst := func(n int) {
		for i := 0; i < n; i++ {
			api.Logs.Append(obs.LogRecord{Time: time.Now().UTC(), Level: "ERROR",
				Service: "staleapid", Msg: fmt.Sprintf("backend wedged %d", i)})
		}
	}
	logBurst(50)
	agg.ScrapeOnce(context.Background()) // first point of the error series
	logBurst(50)
	agg.ScrapeOnce(context.Background()) // irate over the burst breaches 5/s
	if got := burstCounter(); got != 1 {
		t.Fatalf("error-burst alerts after burst = %d, want 1", got)
	}
	logBurst(50)
	agg.ScrapeOnce(context.Background())
	if got := burstCounter(); got != 1 {
		t.Fatalf("error-burst alert refired inside the re-arm window (count %d)", got)
	}

	// Criterion 4: killing ctlogd marks its series stale after StaleAfter —
	// instant answers drop it, history stays selectable, the healthy daemon
	// keeps answering.
	ct.Kill()
	time.Sleep(1200 * time.Millisecond)
	agg.ScrapeOnce(context.Background())
	if vec := fleetVector(t, aggURL, `http_requests_total{job="ctlogd"}`); len(vec) != 0 {
		t.Fatalf("dead ctlogd still in instant answers: %+v", vec)
	}
	if vec := fleetVector(t, aggURL, `count_over_time(http_requests_total{job="ctlogd"}[1m])`); len(vec) == 0 {
		t.Fatal("dead ctlogd's history vanished from range selections before retention")
	}
	if vec := fleetVector(t, aggURL, `http_requests_total{job="staleapid"}`); len(vec) == 0 {
		t.Fatal("healthy staleapid missing from instant answers after peer death")
	}
}

func loadGet(ctx context.Context, hc *http.Client, u string) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	n, _ := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return n, fmt.Errorf("GET %s: status %d", u, resp.StatusCode)
	}
	return n, nil
}
