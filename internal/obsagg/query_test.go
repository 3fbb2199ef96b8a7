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
// request counters climbing over 60s, a latency histogram, and an SLO gauge.
func queryDB(t *testing.T) *TSDB {
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

func TestQueryRateIncrease(t *testing.T) {
	db := queryDB(t)
	// 2xx api counter climbs 100 per 10s: rate = 10/s over any window.
	v := vec(t, evalAt(t, db, `rate(http_requests_total{code="2xx", job="api"}[60s])`, ts(60)))
	if len(v) != 1 || math.Abs(v[0].v-10) > 1e-9 {
		t.Fatalf("rate = %+v, want 10/s", v)
	}
	v = vec(t, evalAt(t, db, `increase(http_requests_total{code="2xx", job="api"}[30s])`, ts(60)))
	if len(v) != 1 || math.Abs(v[0].v-300) > 1e-9 {
		t.Fatalf("increase = %+v, want 300", v)
	}
}

func TestQueryRateCounterReset(t *testing.T) {
	db := &TSDB{}
	// Counter restarts mid-window: 0, 100, 200, (restart) 50, 150.
	vals := []float64{0, 100, 200, 50, 150}
	for i, val := range vals {
		db.Append(ts(i*10), []obs.Sample{counterSample("c_total", val)})
	}
	v := vec(t, evalAt(t, db, `increase(c_total[40s])`, ts(40)))
	// 0→200 is 200, restart adds 50, 50→150 is 100: 350 total.
	if len(v) != 1 || math.Abs(v[0].v-350) > 1e-9 {
		t.Fatalf("reset-adjusted increase = %+v, want 350", v)
	}
	v = vec(t, evalAt(t, db, `irate(c_total[40s])`, ts(30)))
	// Last two points at ts(30) are 200 → 50: a reset, so irate sees 50/10s.
	if len(v) != 1 || math.Abs(v[0].v-5) > 1e-9 {
		t.Fatalf("irate across reset = %+v, want 5/s", v)
	}
}

func TestQueryOverTimeFunctions(t *testing.T) {
	db := queryDB(t)
	cases := map[string]float64{
		`avg_over_time(slo_burn_rate[60s])`:   3, // 0..6 (the window is [0s, 60s])
		`max_over_time(slo_burn_rate[60s])`:   6,
		`min_over_time(slo_burn_rate[60s])`:   0,
		`sum_over_time(slo_burn_rate[60s])`:   21,
		`count_over_time(slo_burn_rate[60s])`: 7,
	}
	for expr, want := range cases {
		v := vec(t, evalAt(t, db, expr, ts(60)))
		if len(v) != 1 || math.Abs(v[0].v-want) > 1e-9 {
			t.Errorf("%s = %+v, want %v", expr, v, want)
		}
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
	// Trailing-by spelling parses to the same thing.
	v2 := vec(t, evalAt(t, db, `sum(http_requests_total) by (job)`, ts(60)))
	if len(v2) != 2 {
		t.Fatalf("trailing by returned %d groups", len(v2))
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
	// Scalar arithmetic, scalar comparison.
	if got := evalAt(t, db, `(2 + 3) * 4`, ts(60)).(float64); got != 20 {
		t.Fatalf("scalar arithmetic = %v", got)
	}
	if got := evalAt(t, db, `2 > 3`, ts(60)).(float64); got != 0 {
		t.Fatalf("scalar comparison = %v", got)
	}
	// Vector * scalar.
	v = vec(t, evalAt(t, db, `sum by (job) (http_requests_total{job="gw"}) * 2`, ts(60)))
	if len(v) != 1 || v[0].v != 600 {
		t.Fatalf("vector*scalar = %+v", v)
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

func TestQueryParseErrors(t *testing.T) {
	bad := []string{
		``,
		`sum by (job (http_requests_total)`,
		`rate(http_requests_total)`, // not a range vector — eval-time error
		`http_requests_total{job=api}`,
		`http_requests_total[`,
		`1 +`,
		`histogram_quantile(0.5)`,
		`nosuchfunc(x[1m])`, // parses as selector "nosuchfunc" then trailing (
	}
	for _, q := range bad {
		node, err := ParseQuery(q)
		if err != nil {
			continue
		}
		if _, err := evalInstant(&TSDB{}, node, ts(0)); err == nil {
			t.Errorf("query %q parsed and evaluated without error", q)
		}
	}
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
