package obsagg

import (
	"bytes"
	"context"
	"log/slog"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stalecert/internal/obs"
)

func TestParseRuleSpecs(t *testing.T) {
	r, err := ParseRecordingRule(`job:qps:rate1m=sum by (job) (rate(http_requests_total[1m]))`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "job:qps:rate1m" || !strings.HasPrefix(r.Expr, "sum by") {
		t.Fatalf("parsed rule = %+v", r)
	}
	for _, bad := range []string{
		"",                      // empty
		"noequals",              // no expr
		"=expr",                 // no name
		"bad name=up",           // space in name
		"x=sum by (",            // unparseable expr
		"9starts_with_digit=up", // bad leading char
		"trailing=",             // empty expr
	} {
		if _, err := ParseRecordingRule(bad); err == nil {
			t.Errorf("ParseRecordingRule(%q) succeeded", bad)
		}
		if _, err := ParseAlertRule(bad); err == nil {
			t.Errorf("ParseAlertRule(%q) succeeded", bad)
		}
	}
}

// TestRecordingRuleMaterialises: a recording rule's output becomes a
// queryable series under the rule name, and a later alert rule in the same
// round can watch it.
func TestRecordingRuleMaterialises(t *testing.T) {
	clock := &fakeClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
	var logs bytes.Buffer
	a := &Aggregator{
		Registry: obs.NewRegistry(),
		Logger:   slog.New(slog.NewTextHandler(&logs, nil)),
		Now:      clock.now,
		RecordingRules: []RecordingRule{
			{Name: "job:requests:sum", Expr: `sum by (job) (http_requests_total)`},
		},
		AlertRules: []AlertRule{
			{Name: "too-many-requests", Expr: `job:requests:sum > 100`},
		},
	}
	a.mu.Lock()
	a.byJob = map[string][]obs.Sample{"api@x": {
		counterSample("http_requests_total", 90, "code", "2xx", "job", "api"),
		counterSample("http_requests_total", 20, "code", "5xx", "job", "api"),
	}}
	a.mu.Unlock()
	evalRound(a)

	sel := a.tsdb().Latest("job:requests:sum", nil, clock.now())
	if len(sel) != 1 || sel[0].Points[0].V != 110 {
		t.Fatalf("recorded series = %+v, want 110", sel)
	}
	if job, _ := pairValue(sel[0].Pairs, "job"); job != "api" {
		t.Errorf("recorded series labels = %v", sel[0].Labels)
	}
	// The alert rule over the recorded series fired in the same round.
	if !strings.Contains(logs.String(), "alert rule firing") {
		t.Fatalf("alert over recorded series did not fire:\n%s", logs.String())
	}
	if got := a.reg().Counter("obsagg_rule_alerts_total", "rule", "too-many-requests").Value(); got != 1 {
		t.Errorf("obsagg_rule_alerts_total = %d, want 1", got)
	}
}

// TestUserAlertRuleRearms: user-defined alert rules get the same re-arm
// policy as the built-in families.
func TestUserAlertRuleRearms(t *testing.T) {
	clock := &fakeClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
	var logs bytes.Buffer
	a := &Aggregator{
		Registry:   obs.NewRegistry(),
		Logger:     slog.New(slog.NewTextHandler(&logs, nil)),
		Now:        clock.now,
		AlertRules: []AlertRule{{Name: "hot", Expr: `temp_celsius > 30`}},
	}
	a.mu.Lock()
	a.byJob = map[string][]obs.Sample{"api@x": {{Name: "temp_celsius", Kind: obs.KindGauge, Value: 40,
		Labels: obs.FormatLabels([]string{"job", "api"})}}}
	a.mu.Unlock()
	count := func() int { return strings.Count(logs.String(), "alert rule firing") }
	evalRound(a)
	if count() != 1 {
		t.Fatalf("first round alerts = %d", count())
	}
	clock.advance(10 * time.Second)
	evalRound(a)
	if count() != 1 {
		t.Fatalf("quiet-period alerts = %d", count())
	}
	clock.advance(alertRearm)
	evalRound(a)
	if count() != 2 {
		t.Fatalf("post-rearm alerts = %d", count())
	}
}

// TestErrorRateRuleFiresEveryRound: the re-expressed error-rate family
// keeps the legacy fire-every-breaching-round behaviour and message.
func TestErrorRateRuleFiresEveryRound(t *testing.T) {
	clock := &fakeClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
	var logs bytes.Buffer
	a := &Aggregator{
		Registry: obs.NewRegistry(),
		Logger:   slog.New(slog.NewTextHandler(&logs, nil)),
		Now:      clock.now,
	}
	a.mu.Lock()
	a.byJob = map[string][]obs.Sample{"api@x": {
		counterSample("http_requests_total", 1, "code", "2xx", "job", "api"),
		counterSample("http_requests_total", 9, "code", "5xx", "job", "api"),
	}}
	a.mu.Unlock()
	count := func() int { return strings.Count(logs.String(), "error rate above threshold") }
	evalRound(a)
	if count() != 1 {
		t.Fatalf("first round alerts = %d, want 1", count())
	}
	clock.advance(time.Second) // inside alertRearm, which would silence a re-armed rule
	evalRound(a)
	if count() != 2 {
		t.Fatalf("second round alerts = %d, want 2 (fires every round)", count())
	}
}

// TestGhostTargetMarkedStale is the federation gauge-ghosting regression: a
// loopback target that dies stays in /fleet marked down, its last-good
// series leave the federated instant view once its scrapes have failed past
// the staleness window, and instant queries stop answering from its frozen
// values — while its history stays range-queryable.
func TestGhostTargetMarkedStale(t *testing.T) {
	remote := obs.NewRegistry()
	remote.Gauge("ingest_lag_seconds").Set(42)
	srv := httptest.NewServer(obs.HandlerFor(remote, obs.NewHealth()))
	clock := &fakeClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
	a := &Aggregator{
		Targets:  []Target{{Job: "ctlogd", URL: srv.URL}},
		Client:   srv.Client(),
		Registry: obs.NewRegistry(),
		Logger:   quietLogger(),
		Now:      clock.now,
		TSDB:     &TSDB{StaleAfter: 30 * time.Second, Retention: time.Hour},
	}
	ctx := context.Background()
	a.ScrapeOnce(ctx)
	instance := a.Targets[0].Instance()
	// The target's federated series, beside the aggregator's own.
	federated := func() (n int) {
		for _, s := range a.Federated() {
			if obs.LabelValue(s, "job") == "ctlogd" {
				n++
			}
		}
		return n
	}

	if sel := a.tsdb().Latest("ingest_lag_seconds", nil, clock.now()); len(sel) != 1 || sel[0].Points[0].V != 42 {
		t.Fatalf("live target not queryable: %+v", sel)
	}

	// Kill the target. The first failed scrape is within the staleness
	// window: serve-stale keeps the last-good series (the existing
	// degraded-mode contract).
	srv.Close()
	clock.advance(10 * time.Second)
	a.ScrapeOnce(ctx)
	if got := federated(); got == 0 {
		t.Fatal("last-good series dropped before staleness window elapsed")
	}
	if sel := a.tsdb().Latest("ingest_lag_seconds", nil, clock.now()); len(sel) != 1 {
		t.Fatalf("series gone from instant answers before staleness window: %+v", sel)
	}

	// Past StaleAfter the target is a ghost: federated view drops its
	// series, instant queries go quiet, history remains.
	clock.advance(time.Minute)
	a.ScrapeOnce(ctx)
	if got := federated(); got != 0 {
		t.Fatalf("ghost target still has %d federated series", got)
	}
	if sel := a.tsdb().Latest("ingest_lag_seconds", nil, clock.now()); len(sel) != 0 {
		t.Fatalf("ghost target still answers instant queries: %+v", sel)
	}
	sel := a.tsdb().Select("ingest_lag_seconds",
		[]Matcher{{Key: "instance", Op: MatchEq, Value: instance}}, clock.now().Add(-time.Hour), clock.now())
	if len(sel) != 1 || len(sel[0].Points) == 0 {
		t.Fatalf("ghost target's history evicted early: %+v", sel)
	}
	if down := a.DownTargets(); len(down) != 1 {
		t.Errorf("DownTargets = %v", down)
	}
}

// TestParsePromNumericEdges: NaN, ±Inf, exponent notation and post-restart
// negative deltas survive federation parsing and TSDB append without panics
// or sign corruption.
func TestParsePromNumericEdges(t *testing.T) {
	input := strings.Join([]string{
		`nan_gauge NaN`,
		`posinf_gauge +Inf`,
		`neginf_gauge -Inf`,
		`exp_gauge 1.5e-9`,
		`bigexp_gauge 2.5E6`,
		`neg_gauge -12.75`,
	}, "\n") + "\n"
	samples, err := obs.ParseProm(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, s := range samples {
		byName[s.Name] = s.Value
	}
	if !math.IsNaN(byName["nan_gauge"]) {
		t.Errorf("NaN = %v", byName["nan_gauge"])
	}
	if !math.IsInf(byName["posinf_gauge"], 1) || !math.IsInf(byName["neginf_gauge"], -1) {
		t.Errorf("Inf = %v / %v", byName["posinf_gauge"], byName["neginf_gauge"])
	}
	if byName["exp_gauge"] != 1.5e-9 || byName["bigexp_gauge"] != 2.5e6 {
		t.Errorf("exponents = %v / %v", byName["exp_gauge"], byName["bigexp_gauge"])
	}
	if byName["neg_gauge"] != -12.75 {
		t.Errorf("negative = %v", byName["neg_gauge"])
	}

	db := &TSDB{}
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	db.Append(now, samples)
	if got := db.SeriesCount(); got != len(samples) {
		t.Fatalf("TSDB series = %d, want %d", got, len(samples))
	}
	if sel := db.Latest("neginf_gauge", nil, now); len(sel) != 1 || !math.IsInf(sel[0].Points[0].V, -1) {
		t.Errorf("-Inf through TSDB = %+v", sel)
	}
	if sel := db.Latest("exp_gauge", nil, now); len(sel) != 1 || sel[0].Points[0].V != 1.5e-9 {
		t.Errorf("exponent through TSDB = %+v", sel)
	}

	// A counter that went backwards (daemon restart) appends cleanly and
	// rate() treats the drop as a reset rather than a negative rate.
	for i, v := range []float64{1000, 1100, 5} {
		db.Append(now.Add(time.Duration(i*10)*time.Second), []obs.Sample{counterSample("restart_total", v)})
	}
	node, err := ParseQuery(`rate(restart_total[20s])`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := evalInstant(db, node, now.Add(20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	vecv := v.([]vecSample)
	if len(vecv) != 1 || vecv[0].v < 0 {
		t.Fatalf("rate across restart = %+v, want non-negative", vecv)
	}
	// 1000→1100 (+100) then reset contributing 5: 105 over 20s.
	if want := 105.0 / 20; math.Abs(vecv[0].v-want) > 1e-9 {
		t.Errorf("rate across restart = %v, want %v", vecv[0].v, want)
	}
}

// TestFederationToTSDBRoundTrip: a full loopback scrape lands relabelled
// series in the TSDB, queryable with job/instance matchers, including
// histogram bucket expansion of a real registry's histogram.
func TestFederationToTSDBRoundTrip(t *testing.T) {
	remote := obs.NewRegistry()
	remote.Counter("http_requests_total", "code", "2xx", "route", "/v1/x", "service", "staleapid").Add(7)
	remote.Histogram("http_request_seconds", nil, "route", "/v1/x", "service", "staleapid").Observe(0.003)
	srv := httptest.NewServer(obs.HandlerFor(remote, obs.NewHealth()))
	defer srv.Close()
	a := &Aggregator{
		Targets:  []Target{{Job: "staleapid", URL: srv.URL}},
		Client:   srv.Client(),
		Registry: obs.NewRegistry(),
		Logger:   quietLogger(),
	}
	a.ScrapeOnce(context.Background())
	db := a.tsdb()
	now := time.Now()
	m := []Matcher{{Key: "job", Op: MatchEq, Value: "staleapid"}}
	if sel := db.Latest("http_requests_total", m, now); len(sel) != 1 || sel[0].Points[0].V != 7 {
		t.Fatalf("federated counter in TSDB = %+v", sel)
	}
	buckets := db.Latest("http_request_seconds_bucket", m, now)
	if len(buckets) != len(obs.DurationBuckets)+1 {
		t.Fatalf("federated histogram buckets = %d, want %d", len(buckets), len(obs.DurationBuckets)+1)
	}
	if cnt := db.Latest("http_request_seconds_count", m, now); len(cnt) != 1 || cnt[0].Points[0].V != 1 {
		t.Fatalf("federated histogram count = %+v", cnt)
	}
}
