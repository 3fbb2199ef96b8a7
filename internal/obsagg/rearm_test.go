package obsagg

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"stalecert/internal/obs"
)

// fakeClock is a mutable time source for Aggregator.Now.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func slowTrace(id string, start time.Time, dur time.Duration) obs.TraceRecord {
	return obs.TraceRecord{
		TraceID:  id,
		Root:     "GET /v1/cert/{fp}",
		Route:    "/v1/cert/{fp}",
		Start:    start,
		Duration: dur,
		Spans: []obs.SpanRecord{{
			TraceID: id, SpanID: id + "-s1", Service: "staleapid",
			Name: "GET /v1/cert/{fp}", Start: start, Duration: dur,
		}},
	}
}

func alertCount(logs *bytes.Buffer) int {
	return strings.Count(logs.String(), "slow trace")
}

// TestSlowTraceAlertRearms: a trace that stays slow across scrape rounds
// re-alerts after the quiet period instead of firing exactly once forever.
func TestSlowTraceAlertRearms(t *testing.T) {
	var logs bytes.Buffer
	clock := &fakeClock{t: time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)}
	a := &Aggregator{
		Registry: obs.NewRegistry(),
		Logger:   slog.New(slog.NewTextHandler(&logs, nil)),
		Now:      clock.now,
	}
	tr := slowTrace("t1", clock.now(), traceSlow)

	a.mergeTraces([]obs.TraceRecord{tr})
	if got := alertCount(&logs); got != 1 {
		t.Fatalf("alerts after first merge = %d, want 1", got)
	}

	// Re-scraping the same slow trace inside the quiet period stays silent.
	clock.advance(10 * time.Second)
	a.mergeTraces([]obs.TraceRecord{tr})
	if got := alertCount(&logs); got != 1 {
		t.Fatalf("alerts inside quiet period = %d, want 1", got)
	}

	// Past the quiet period the alert re-arms.
	clock.advance(alertRearm)
	a.mergeTraces([]obs.TraceRecord{tr})
	if got := alertCount(&logs); got != 2 {
		t.Fatalf("alerts after quiet period = %d, want 2", got)
	}
	if got := a.reg().Counter("obsagg_slow_traces_total").Value(); got != 2 {
		t.Errorf("obsagg_slow_traces_total = %v, want 2", got)
	}
}

// evalRound mimics the tail of a scrape round for rule tests: the injected
// federated samples are appended to the TSDB at the (fake) clock, then the
// rules engine evaluates the built-in alert families against it.
func evalRound(a *Aggregator) {
	a.tsdb().Append(a.now(), a.Federated())
	a.evalRules()
}

// TestSLOBurnRuleRearms exercises the same re-arm policy on federated SLO
// burn alerts, driving the built-in fleet-slo-burn rule over injected
// federated samples.
func TestSLOBurnRuleRearms(t *testing.T) {
	var logs bytes.Buffer
	clock := &fakeClock{t: time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)}
	a := &Aggregator{
		Registry: obs.NewRegistry(),
		Logger:   slog.New(slog.NewTextHandler(&logs, nil)),
		Now:      clock.now,
	}
	firing := []obs.Sample{
		{Name: "slo_burn_rate", Kind: obs.KindGauge, Value: 20,
			Labels: obs.FormatLabels([]string{"instance", "127.0.0.1:8786", "job", "staleapid", "slo", "availability", "window", "5m"})},
		{Name: "slo_alert_firing", Kind: obs.KindGauge, Value: 1,
			Labels: obs.FormatLabels([]string{"instance", "127.0.0.1:8786", "job", "staleapid", "severity", "page", "slo", "availability"})},
	}
	a.mu.Lock()
	a.byJob = map[string][]obs.Sample{"staleapid@127.0.0.1:8786": firing}
	a.mu.Unlock()

	count := func() int { return strings.Count(logs.String(), "fleet slo burn-rate alert") }
	evalRound(a)
	if got := count(); got != 1 {
		t.Fatalf("fleet alerts after first round = %d, want 1", got)
	}
	if !strings.Contains(logs.String(), `burn_rates="5m=20"`) || !strings.Contains(logs.String(), "budget_remaining=1") {
		t.Errorf("alert line lacks burn/budget annotation: %s", logs.String())
	}

	// The posture the alert summarises is one /fleet/query away.
	rec := httptest.NewRecorder()
	a.Handler().ServeHTTP(rec, httptest.NewRequest("GET",
		"/fleet/query?query="+url.QueryEscape(`max by (job, slo, window) (slo_burn_rate)`), nil))
	var resp struct {
		Data struct {
			Result []struct {
				Metric map[string]string `json:"metric"`
				Value  [2]any            `json:"value"`
			} `json:"result"`
		} `json:"data"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad /fleet/query JSON: %v\n%s", err, rec.Body)
	}
	rows := resp.Data.Result
	if len(rows) != 1 || rows[0].Metric["job"] != "staleapid" || rows[0].Metric["slo"] != "availability" ||
		rows[0].Metric["window"] != "5m" || rows[0].Value[1] != "20" {
		t.Fatalf("/fleet/query burn rows = %s", rec.Body)
	}
	clock.advance(10 * time.Second)
	evalRound(a)
	if got := count(); got != 1 {
		t.Fatalf("fleet alerts inside quiet period = %d, want 1", got)
	}
	clock.advance(alertRearm)
	evalRound(a)
	if got := count(); got != 2 {
		t.Fatalf("fleet alerts after quiet period = %d, want 2", got)
	}
	if got := a.reg().Counter("obsagg_slo_alerts_total", "job", "staleapid", "severity", "page").Value(); got != 2 {
		t.Errorf("obsagg_slo_alerts_total = %v, want 2", got)
	}
}
