package obsagg

import (
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"stalecert/internal/obs"
)

// queryDB builds a TSDB with a small fleet's worth of history: two jobs'
// request counters climbing over 60s, a latency histogram, the SLO gauges,
// error-log counters and breaker states the built-in rules and stalestat read.
func queryDB(t testing.TB) *TSDB {
	t.Helper()
	db := &TSDB{}
	for i := 0; i <= 6; i++ {
		now := ts(i * 10)
		db.Append(now, []obs.Sample{
			counterSample("http_requests_total", float64(i*100), "code", "2xx", "job", "api"),
			counterSample("http_requests_total", float64(i*10), "code", "5xx", "job", "api"),
			counterSample("http_requests_total", float64(i*50), "code", "2xx", "job", "gw"),
			{Name: "slo_burn_rate", Labels: obs.FormatLabels([]string{"job", "api", "slo", "availability", "window", "5m"}),
				Kind: obs.KindGauge, Value: float64(i)},
			gaugeSample("slo_error_budget_remaining", 1-float64(i)/10, "job", "api", "slo", "availability"),
			gaugeSample("slo_alert_firing", float64(i/4), "instance", "api:1", "job", "api", "severity", "page", "slo", "availability"),
			gaugeSample("slo_alert_firing", 0, "instance", "api:1", "job", "api", "severity", "ticket", "slo", "availability"),
			counterSample("log_records_total", float64(i*i), "job", "api", "level", "error"),
			counterSample("log_records_total", float64(i), "job", "gw", "level", "error"),
			counterSample("log_records_total", float64(i*40), "job", "gw", "level", "info"),
			gaugeSample("resil_breaker_state", 1, "job", "gw", "peer", "api:1"),
			gaugeSample("resil_breaker_state", 0, "job", "gw", "peer", "api:2"),
		})
		h := obs.Sample{
			Name: "http_request_seconds", Labels: obs.FormatLabels([]string{"job", "api"}), Kind: obs.KindHistogram,
			Count: uint64(i * 100), Sum: float64(i),
			Buckets: []obs.BucketCount{
				{UpperBound: 0.01, Count: uint64(i * 50)},
				{UpperBound: 0.1, Count: uint64(i * 90), Exemplar: &obs.Exemplar{TraceID: "trace-p99", Value: 0.09}},
				{UpperBound: math.Inf(1), Count: uint64(i * 100)},
			},
		}
		db.Append(now, []obs.Sample{h})
	}
	return db
}

func gaugeSample(name string, v float64, kv ...string) obs.Sample {
	return obs.Sample{Name: name, Labels: obs.FormatLabels(kv), Kind: obs.KindGauge, Value: v}
}

func evalAt(t *testing.T, db *TSDB, expr string, at time.Time) queryValue {
	t.Helper()
	node, err := ParseQuery(expr)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	v, err := evalInstant(db, node, at)
	if err != nil {
		t.Fatalf("eval %q: %v", expr, err)
	}
	return v
}

func vec(t *testing.T, v queryValue) []vecSample {
	t.Helper()
	out, ok := v.([]vecSample)
	if !ok {
		t.Fatalf("value %T is not a vector", v)
	}
	return out
}

func TestQuerySelectorAndMatchers(t *testing.T) {
	db := queryDB(t)
	v := vec(t, evalAt(t, db, `http_requests_total{job="api"}`, ts(60)))
	if len(v) != 2 {
		t.Fatalf("api selector returned %d series, want 2", len(v))
	}
	v = vec(t, evalAt(t, db, `http_requests_total{job="api", code!="5xx"}`, ts(60)))
	if len(v) != 1 || v[0].v != 600 {
		t.Fatalf("negated matcher = %+v", v)
	}
	v = vec(t, evalAt(t, db, `http_requests_total{job=~"a.*"}`, ts(60)))
	if len(v) != 2 {
		t.Fatalf("regex matcher returned %d series, want 2", len(v))
	}
	if name := v[0].name; name != "http_requests_total" {
		t.Errorf("bare selector lost metric name: %q", name)
	}
}

func TestQueryRateCounterReset(t *testing.T) {
	db := &TSDB{}
	// Counter restarts mid-window: 0, 100, 200, (restart) 50, 150.
	vals := []float64{0, 100, 200, 50, 150}
	for i, val := range vals {
		db.Append(ts(i*10), []obs.Sample{counterSample("c_total", val)})
	}
	v := vec(t, evalAt(t, db, `rate(c_total[40s])`, ts(40)))
	// 0→200 is 200, restart adds 50, 50→150 is 100: 350 over the 40s.
	if len(v) != 1 || math.Abs(v[0].v-350.0/40) > 1e-9 {
		t.Fatalf("reset-adjusted rate = %+v, want 8.75/s", v)
	}
	v = vec(t, evalAt(t, db, `irate(c_total[40s])`, ts(30)))
	// Last two points at ts(30) are 200 → 50: a reset, so irate sees 50/10s.
	if len(v) != 1 || math.Abs(v[0].v-5) > 1e-9 {
		t.Fatalf("irate across reset = %+v, want 5/s", v)
	}
}

func TestQueryAggregationBy(t *testing.T) {
	db := queryDB(t)
	v := vec(t, evalAt(t, db, `sum by (job) (http_requests_total)`, ts(60)))
	if len(v) != 2 {
		t.Fatalf("sum by (job) returned %d groups, want 2", len(v))
	}
	byJob := map[string]float64{}
	for _, s := range v {
		j, _ := pairValue(s.pairs, "job")
		byJob[j] = s.v
	}
	if byJob["api"] != 660 || byJob["gw"] != 300 {
		t.Fatalf("sum by (job) = %v", byJob)
	}
	// Aggregation without by collapses to one ungrouped sample.
	v3 := vec(t, evalAt(t, db, `max(http_requests_total)`, ts(60)))
	if len(v3) != 1 || v3[0].v != 600 || v3[0].labels != "" {
		t.Fatalf("max() = %+v", v3)
	}
}

func TestQueryBinaryOpsAndFilters(t *testing.T) {
	db := queryDB(t)
	// Vector/vector ratio with one-to-one matching on the by-labels.
	v := vec(t, evalAt(t, db,
		`sum by (job) (http_requests_total{code="5xx"}) / sum by (job) (http_requests_total)`, ts(60)))
	if len(v) != 1 {
		t.Fatalf("ratio = %+v, want only the api job (gw has no 5xx)", v)
	}
	want := 60.0 / 660.0
	if math.Abs(v[0].v-want) > 1e-9 {
		t.Fatalf("error ratio = %v, want %v", v[0].v, want)
	}
	// Comparison filters: only the api 2xx series exceeds 400.
	v = vec(t, evalAt(t, db, `http_requests_total > 400`, ts(60)))
	if len(v) != 1 || v[0].v != 600 {
		t.Fatalf("filter = %+v", v)
	}
	// Vector * scalar, and precedence: * binds tighter than -, - than >,
	// and parentheses override it.
	v = vec(t, evalAt(t, db, `sum by (job) (http_requests_total{job="gw"}) * 2`, ts(60)))
	if len(v) != 1 || v[0].v != 600 {
		t.Fatalf("vector*scalar = %+v", v)
	}
	v = vec(t, evalAt(t, db,
		`sum by (job) (http_requests_total) - sum by (job) (http_requests_total{code="2xx"}) / 2 > 200`, ts(60)))
	if len(v) != 1 || v[0].v != 360 {
		t.Fatalf("a - b/c > d = %+v, want only api at 660-600/2", v)
	}
	v = vec(t, evalAt(t, db, `(sum by (job) (http_requests_total) - 100) * 2`, ts(60)))
	if len(v) != 2 || v[0].v != 1120 || v[1].v != 400 {
		t.Fatalf("(a - b) * c = %+v", v)
	}
}

func TestQueryHistogramQuantile(t *testing.T) {
	db := queryDB(t)
	// At ts(60): cumulative 300/540/600. p50 rank 300 lands exactly on the
	// 0.01 bucket; p99 rank 594 lands in the +Inf bucket → highest finite
	// bound 0.1.
	v := vec(t, evalAt(t, db, `histogram_quantile(0.5, http_request_seconds_bucket{job="api"})`, ts(60)))
	if len(v) != 1 {
		t.Fatalf("quantile groups = %+v", v)
	}
	if math.Abs(v[0].v-0.01) > 1e-9 {
		t.Errorf("p50 = %v, want 0.01", v[0].v)
	}
	v = vec(t, evalAt(t, db, `histogram_quantile(0.99, http_request_seconds_bucket{job="api"})`, ts(60)))
	if math.Abs(v[0].v-0.1) > 1e-9 {
		t.Errorf("p99 = %v, want 0.1", v[0].v)
	}
	// p80: rank 480 lands in the 0.1 bucket (300..540): interpolated
	// between 0.01 and 0.1 at (480-300)/240.
	v = vec(t, evalAt(t, db, `histogram_quantile(0.8, http_request_seconds_bucket{job="api"})`, ts(60)))
	want := 0.01 + (0.1-0.01)*(480.0-300)/240
	if math.Abs(v[0].v-want) > 1e-9 {
		t.Errorf("p80 = %v, want %v", v[0].v, want)
	}
	if v[0].exemplar == nil || v[0].exemplar.TraceID != "trace-p99" {
		t.Errorf("quantile lost the landing bucket's exemplar: %+v", v[0].exemplar)
	}
	// Composed with rate() — the canonical latency question.
	v = vec(t, evalAt(t, db,
		`histogram_quantile(0.8, sum by (le) (rate(http_request_seconds_bucket{job="api"}[60s])))`, ts(60)))
	if len(v) != 1 || math.Abs(v[0].v-want) > 1e-9 {
		t.Errorf("quantile over rate = %+v, want %v", v, want)
	}
}

// fleetQuery asks a handler over the fixture TSDB, frozen at ts(60), one
// /fleet/query question.
func fleetQuery(t *testing.T, expr, extra string) (status int, resultType, result, errMsg string) {
	t.Helper()
	a := &Aggregator{Registry: obs.NewRegistry(), TSDB: queryDB(t), Now: func() time.Time { return ts(60) }}
	rec := httptest.NewRecorder()
	a.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/fleet/query?query="+url.QueryEscape(expr)+extra, nil))
	var r struct {
		Error string
		Data  struct {
			ResultType string
			Result     json.RawMessage
		}
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
		t.Fatalf("%s: bad JSON %s: %v", expr, rec.Body, err)
	}
	return rec.Code, r.Data.ResultType, string(r.Data.Result), r.Error
}

// TestQueryLanguageIsItsUsers is the list of supported expressions: every
// one a built-in rule, stalestat, a README or header example or a root
// acceptance test sends, with the answer the fixture gives it. A production
// with no row here has no user and belongs in TestQueryRejections.
func TestQueryLanguageIsItsUsers(t *testing.T) {
	for _, tc := range []struct {
		user, expr, params, resultType, want string
	}{
		{"rules.go fleet-error-rate (threshold 0.05)", `sum by (job) (http_requests_total{code="5xx"}) / sum by (job) (http_requests_total) > 0.05`, "", "vector",
			`[{"metric":{"job":"api"},"value":[1786190460,"0.09090909090909091"]}]`},
		{"rules.go fleet-slo-burn", `max by (instance, job, severity, slo) (slo_alert_firing) >= 1`, "", "vector",
			`[{"metric":{"instance":"api:1","job":"api","severity":"page","slo":"availability"},"value":[1786190460,"1"]}]`},
		{"rules.go fleet-error-burst (window = retention, threshold 1)", `sum by (job) (irate(log_records_total{level="error"}[15m0s])) > 1`, "", "vector",
			`[{"metric":{"job":"api"},"value":[1786190460,"1.1"]}]`},
		{"rules.go annotateSLOBurn burn rates (built as an AST there)", `max by (window) (slo_burn_rate{instance="", job="api", slo="availability"})`, "", "vector",
			`[{"metric":{"window":"5m"},"value":[1786190460,"6"]}]`},
		{"rules.go annotateSLOBurn budget (built as an AST there)", `min(slo_error_budget_remaining{instance="", job="api", slo="availability"})`, "", "vector",
			`[{"metric":{},"value":[1786190460,"0.4"]}]`},
		{"stalestat top QPS", `sum by (job) (rate(http_requests_total[30s]))`, "", "vector",
			`[{"metric":{"job":"api"},"value":[1786190460,"11"]},{"metric":{"job":"gw"},"value":[1786190460,"5"]}]`},
		{"stalestat top ERR%", `sum by (job) (rate(http_requests_total{code="5xx"}[30s])) / sum by (job) (rate(http_requests_total[30s]))`, "", "vector",
			`[{"metric":{"job":"api"},"value":[1786190460,"0.09090909090909091"]}]`},
		{"stalestat top P50", `histogram_quantile(0.5, sum by (job, le) (rate(http_request_seconds_bucket[30s])))`, "", "vector",
			`[{"metric":{"job":"api"},"value":[1786190460,"0.01"]}]`},
		{"stalestat top P99", `histogram_quantile(0.99, sum by (job, le) (rate(http_request_seconds_bucket[30s])))`, "", "vector",
			`[{"metric":{"job":"api"},"value":[1786190460,"0.1"]}]`},
		{"stalestat top BURN", `max by (job) (slo_burn_rate)`, "", "vector",
			`[{"metric":{"job":"api"},"value":[1786190460,"6"]}]`},
		{"stalestat top OPEN-BRK", `sum by (job) (resil_breaker_state == 1)`, "", "vector",
			`[{"metric":{"job":"gw"},"value":[1786190460,"1"]}]`},
		{"cmd/stalestat header, README", `sum by (job) (rate(http_requests_total[1m]))`, "", "vector",
			`[{"metric":{"job":"api"},"value":[1786190460,"11"]},{"metric":{"job":"gw"},"value":[1786190460,"5"]}]`},
		{"cmd/stalestat header", `histogram_quantile(0.99, sum by (le) (rate(http_request_seconds_bucket[5m])))`, "", "vector",
			`[{"metric":{},"value":[1786190460,"0.1"]}]`},
		{"README, DESIGN §10, cmd/obsagg header, rearm_test.go", `max by (job, slo, window) (slo_burn_rate)`, "", "vector",
			`[{"metric":{"job":"api","slo":"availability","window":"5m"},"value":[1786190460,"6"]}]`},
		{"README", `min by (job, slo) (slo_error_budget_remaining)`, "", "vector",
			`[{"metric":{"job":"api","slo":"availability"},"value":[1786190460,"0.4"]}]`},
		{"README", `slo_alert_firing >= 1`, "", "vector",
			`[{"metric":{"__name__":"slo_alert_firing","instance":"api:1","job":"api","severity":"page","slo":"availability"},"value":[1786190460,"1"]}]`},
		{"fleetquery_acceptance_test.go (no such job in the fixture)", `sum(rate(http_requests_total{job="staleapid"}[30s]))`, "", "vector",
			`[]`},
		{"the same over a fixture job", `sum(rate(http_requests_total{job="api"}[30s]))`, "", "vector",
			`[{"metric":{},"value":[1786190460,"11"]}]`},
		{"fleetquery_acceptance_test.go (no such job in the fixture)", `histogram_quantile(0.99, sum by (le) (rate(http_request_seconds_bucket{job="staleapid"}[30s])))`, "", "vector",
			`[]`},
		{"fleetquery_acceptance_test.go: a vanished target's instant answer is empty", `http_requests_total{job="ctlogd"}`, "", "vector",
			`[]`},
		{"fleetquery_acceptance_test.go: a live target's is not", `http_requests_total{job="api"}`, "", "vector",
			`[{"metric":{"__name__":"http_requests_total","code":"2xx","job":"api"},"value":[1786190460,"600"]},{"metric":{"__name__":"http_requests_total","code":"5xx","job":"api"},"value":[1786190460,"60"]}]`},
		{"fleetquery_acceptance_test.go (no such job in the fixture)", `count_over_time(http_requests_total{job="ctlogd"}[1m])`, "", "vector",
			`[]`},
		{"the same over a fixture job", `count_over_time(http_requests_total{job="gw"}[1m])`, "", "vector",
			`[{"metric":{"code":"2xx","job":"gw"},"value":[1786190460,"7"]}]`},
		{"binary_smoke_test.go (no such job in the fixture)", `sum(rate(http_requests_total{job="stalegw"}[15s]))`, "", "vector",
			`[]`},
		{"all four matcher operators", `http_requests_total{job=~"a.*", code!="5xx", code!~"4.."}`, "", "vector",
			`[{"metric":{"__name__":"http_requests_total","code":"2xx","job":"api"},"value":[1786190460,"600"]}]`},
		{"vector ⊕ scalar arithmetic", `sum by (job) (http_requests_total) * 2`, "", "vector",
			`[{"metric":{"job":"api"},"value":[1786190460,"1320"]},{"metric":{"job":"gw"},"value":[1786190460,"600"]}]`},
		{"range evaluation", `sum by (job) (http_requests_total)`, "&start=1786190400&end=1786190460&step=30s", "matrix",
			`[{"metric":{"job":"api"},"values":[[1786190400,"0"],[1786190430,"330"],[1786190460,"660"]]},{"metric":{"job":"gw"},"values":[[1786190400,"0"],[1786190430,"150"],[1786190460,"300"]]}]`},
		{"a number is a scalar answer", `42`, "", "scalar",
			`[1786190460,"42"]`},
	} {
		status, resultType, got, errMsg := fleetQuery(t, tc.expr, tc.params)
		if status != 200 || resultType != tc.resultType || got != tc.want {
			t.Errorf("%s\n  %s\n  = %d %s %s %s\n  want 200 %s %s", tc.user, tc.expr, status, errMsg, resultType, got, tc.resultType, tc.want)
		}
	}
}

// TestQueryRejections lists what /fleet/query refuses: 400 for what does not
// parse — the productions dropped for want of a user, lists without their
// commas — and 422 for what parses and has no answer.
func TestQueryRejections(t *testing.T) {
	for _, tc := range []struct {
		expr   string
		status int
		msg    string
	}{
		{`increase(http_requests_total[1m])`, 400, `unknown function "increase"`},
		{`avg_over_time(slo_burn_rate[1m])`, 400, `unknown function "avg_over_time"`},
		{`max_over_time(slo_burn_rate[1m])`, 400, `unknown function "max_over_time"`},
		{`min_over_time(slo_burn_rate[1m])`, 400, `unknown function "min_over_time"`},
		{`sum_over_time(slo_burn_rate[1m])`, 400, `unknown function "sum_over_time"`},
		{`nosuchfunc(slo_burn_rate[1m])`, 400, `unknown function "nosuchfunc"`},
		{`avg(http_requests_total)`, 400, `unknown function "avg"`},
		{`count(http_requests_total)`, 400, `unknown function "count"`},
		{`avg by (job) (http_requests_total)`, 400, `trailing input at "by"`},
		{`count by (job) (http_requests_total)`, 400, `trailing input at "by"`},
		{`sum(http_requests_total) by (job)`, 400, `trailing input at "by"`},
		{`-slo_burn_rate`, 400, `unexpected "-"`},
		{`slo_burn_rate > -1`, 400, `unexpected "-"`},
		{`sum by (job code) (http_requests_total)`, 400, `expected "," or ")", got "code"`},
		{`http_requests_total{job="api" code="2xx"}`, 400, `expected "," or "}", got "code"`},
		{`histogram_quantile(0.5 http_request_seconds_bucket)`, 400, `expected "," or ")", got "http_request_seconds_bucket"`},
		{``, 400, `missing query parameter`},
		{`sum by (job (http_requests_total)`, 400, `expected "," or ")", got "("`},
		{`http_requests_total{job=api}`, 400, `must be a quoted string`},
		{`http_requests_total[`, 400, `bad range duration`},
		{`http_requests_total[90]`, 400, `bad range duration "90"`},
		{`slo_burn_rate +`, 400, `unexpected end of query`},
		{`2 * slo_burn_rate`, 422, `the left of * expects an instant vector`},
		{`(2 + 3) * 4`, 422, `the left of + expects an instant vector`},
		{`2 > 3`, 422, `the left of > expects an instant vector`},
		{`http_requests_total[1m]`, 422, `a range vector is not an answer`},
		{`slo_burn_rate > http_requests_total[1m]`, 422, `the right of > expects an instant vector or a number`},
		{`rate(http_requests_total)`, 422, `rate expects a range vector`},
		{`sum(http_requests_total[1m])`, 422, `sum expects an instant vector`},
		{`histogram_quantile(0.5)`, 422, `histogram_quantile expects (q, bucket-vector)`},
		{`histogram_quantile(slo_burn_rate, http_request_seconds_bucket)`, 422, `quantile must be a number`},
	} {
		status, _, _, errMsg := fleetQuery(t, tc.expr, "")
		if status != tc.status || !strings.Contains(errMsg, tc.msg) {
			t.Errorf("%s = %d %q, want %d %q", tc.expr, status, errMsg, tc.status, tc.msg)
		}
	}
	// Accepted on purpose: a trailing comma inside {} and inside a by list.
	for _, expr := range []string{`http_requests_total{job="api",}`, `sum by (job,) (http_requests_total)`} {
		if status, _, _, errMsg := fleetQuery(t, expr, ""); status != 200 {
			t.Errorf("%s = %d %q, want 200", expr, status, errMsg)
		}
	}
	// Range parameters that are no range: a step that rounds to zero, steps
	// past the largest duration, and a span too wide for a duration.
	for _, tc := range []struct{ params, msg string }{
		{"&start=0&end=60&step=1e-12", `bad step "1e-12"`},
		{"&start=0&end=60&step=Inf", `bad step "Inf"`},
		{"&start=0&end=60&step=1e300", `bad step "1e300"`},
		{"&start=0001-01-01T00:00:00Z&end=9999-01-01T00:00:00Z&step=8760h", "exceeds 11000 steps"},
	} {
		rec := serveQuery(t, queryDB(t), "query=slo_burn_rate"+tc.params)
		var r struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil || rec.Code != 400 || !strings.Contains(r.Error, tc.msg) {
			t.Errorf("%s = %d %s, want 400 %q", tc.params, rec.Code, rec.Body, tc.msg)
		}
	}
}

// serveQuery asks /fleet/query over db at ts(60) with the raw query string,
// failing the test on a panic or on no answer within five seconds — a range
// loop that never ends fails instead of hanging the test.
func serveQuery(t *testing.T, db *TSDB, rawQuery string) *httptest.ResponseRecorder {
	t.Helper()
	a := &Aggregator{Registry: obs.NewRegistry(), TSDB: db, Now: func() time.Time { return ts(60) }}
	rec := httptest.NewRecorder()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		a.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/fleet/query?"+rawQuery, nil))
	}()
	select {
	case p := <-done:
		if p != nil {
			t.Fatalf("%s: panic: %v", rawQuery, p)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: no answer within 5s", rawQuery)
	}
	return rec
}

func TestFleetQueryHandler(t *testing.T) {
	a := &Aggregator{Registry: obs.NewRegistry(), TSDB: queryDB(t),
		Now: func() time.Time { return ts(60) }}
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	// Instant vector.
	code, body := get("/fleet/query?query=" + url.QueryEscape(`sum by (job) (http_requests_total)`))
	if code != 200 {
		t.Fatalf("instant query status %d: %s", code, body)
	}
	var r struct {
		Status string `json:"status"`
		Data   struct {
			ResultType string `json:"resultType"`
			Result     []struct {
				Metric map[string]string `json:"metric"`
				Value  [2]any            `json:"value"`
			} `json:"result"`
		} `json:"data"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if r.Status != "success" || r.Data.ResultType != "vector" || len(r.Data.Result) != 2 {
		t.Fatalf("instant response = %s", body)
	}
	for _, e := range r.Data.Result {
		if e.Metric["job"] == "api" {
			if v, _ := strconv.ParseFloat(e.Value[1].(string), 64); v != 660 {
				t.Errorf("api sum = %v, want 660", e.Value[1])
			}
		}
	}

	// Range query.
	start := strconv.FormatInt(ts(0).Unix(), 10)
	end := strconv.FormatInt(ts(60).Unix(), 10)
	code, body = get("/fleet/query?query=" + url.QueryEscape(`sum by (job) (http_requests_total)`) +
		"&start=" + start + "&end=" + end + "&step=10s")
	if code != 200 {
		t.Fatalf("range query status %d: %s", code, body)
	}
	var rr struct {
		Status string `json:"status"`
		Data   struct {
			ResultType string `json:"resultType"`
			Result     []struct {
				Metric map[string]string `json:"metric"`
				Values [][2]any          `json:"values"`
			} `json:"result"`
		} `json:"data"`
	}
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if rr.Data.ResultType != "matrix" || len(rr.Data.Result) != 2 {
		t.Fatalf("range response = %s", body)
	}
	for _, sr := range rr.Data.Result {
		if len(sr.Values) != 7 {
			t.Errorf("series %v has %d steps, want 7", sr.Metric, len(sr.Values))
		}
	}

	// Parse errors are 400 with status=error.
	code, body = get("/fleet/query?query=" + url.QueryEscape(`sum by (`))
	if code != 400 || !strings.Contains(string(body), `"error"`) {
		t.Fatalf("parse error response = %d %s", code, body)
	}
	// Missing query parameter.
	if code, _ := get("/fleet/query"); code != 400 {
		t.Fatalf("missing query param status = %d", code)
	}
	// Exemplar-bearing quantile carries trace_id.
	code, body = get("/fleet/query?query=" + url.QueryEscape(`histogram_quantile(0.8, http_request_seconds_bucket)`))
	if code != 200 || !strings.Contains(string(body), `"trace_id":"trace-p99"`) {
		t.Fatalf("exemplar response = %d %s", code, body)
	}
}
