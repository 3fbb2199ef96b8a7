package obsagg

import (
	"math"
	"strings"
	"testing"
	"time"
	"unsafe"

	"stalecert/internal/obs"
)

func ts(sec int) time.Time {
	return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC).Add(time.Duration(sec) * time.Second)
}

func counterSample(name string, v float64, kv ...string) obs.Sample {
	return obs.Sample{Name: name, Labels: obs.FormatLabels(kv), Kind: obs.KindCounter, Value: v}
}

func TestTSDBAppendAndSelect(t *testing.T) {
	db := &TSDB{}
	for i := 0; i < 5; i++ {
		db.Append(ts(i*10), []obs.Sample{
			counterSample("reqs_total", float64(i*100), "job", "api", "code", "2xx"),
			counterSample("reqs_total", float64(i*2), "job", "api", "code", "5xx"),
		})
	}
	if got := db.SeriesCount(); got != 2 {
		t.Fatalf("SeriesCount = %d, want 2", got)
	}
	sel := db.Select("reqs_total", nil, ts(0).Add(-time.Second), ts(40))
	if len(sel) != 2 {
		t.Fatalf("Select returned %d series, want 2", len(sel))
	}
	for _, sd := range sel {
		if len(sd.Points) != 5 {
			t.Errorf("series %s has %d points, want 5", sd.Labels, len(sd.Points))
		}
	}
	m, err := NewMatcher("code", MatchEq, "5xx")
	if err != nil {
		t.Fatal(err)
	}
	inst := db.Latest("reqs_total", []Matcher{m}, ts(40))
	if len(inst) != 1 || inst[0].Points[0].V != 8 {
		t.Fatalf("Latest 5xx = %+v, want one point of 8", inst)
	}
}

func TestTSDBSameTimestampReplacesPoint(t *testing.T) {
	db := &TSDB{}
	db.Append(ts(0), []obs.Sample{counterSample("x_total", 1)})
	db.Append(ts(0), []obs.Sample{counterSample("x_total", 2)})
	sel := db.Select("x_total", nil, ts(-1), ts(1))
	if len(sel) != 1 || len(sel[0].Points) != 1 || sel[0].Points[0].V != 2 {
		t.Fatalf("duplicate-timestamp append = %+v, want single point of 2", sel)
	}
}

func TestTSDBRetentionEvictsPoints(t *testing.T) {
	db := &TSDB{Retention: 30 * time.Second}
	for i := 0; i < 10; i++ {
		db.Append(ts(i*10), []obs.Sample{counterSample("x_total", float64(i))})
	}
	sel := db.Select("x_total", nil, ts(-1000), ts(1000))
	if len(sel) != 1 {
		t.Fatalf("series count = %d", len(sel))
	}
	// At append time ts(90), the cutoff is ts(60): points at 60, 70, 80, 90
	// survive (the one exactly at the cutoff is not Before it).
	if got := len(sel[0].Points); got != 4 {
		t.Fatalf("retained points = %d, want 4 (%+v)", got, sel[0].Points)
	}
	if sel[0].Points[0].V != 6 {
		t.Errorf("oldest retained = %v, want 6", sel[0].Points[0].V)
	}
}

func TestTSDBMaxSeriesDrops(t *testing.T) {
	db := &TSDB{MaxSeries: 2}
	db.Append(ts(0), []obs.Sample{
		counterSample("a_total", 1, "i", "1"),
		counterSample("a_total", 1, "i", "2"),
		counterSample("a_total", 1, "i", "3"),
	})
	if got := db.SeriesCount(); got != 2 {
		t.Fatalf("SeriesCount = %d, want 2", got)
	}
	if got := db.DroppedSeries(); got != 1 {
		t.Fatalf("DroppedSeries = %d, want 1", got)
	}
	// Existing series still append fine at the cap.
	db.Append(ts(10), []obs.Sample{counterSample("a_total", 2, "i", "1")})
	sel := db.Select("a_total", []Matcher{{Key: "i", Op: MatchEq, Value: "1"}}, ts(-1), ts(20))
	if len(sel) != 1 || len(sel[0].Points) != 2 {
		t.Fatalf("capped append to existing series failed: %+v", sel)
	}
}

func TestTSDBHistogramExpansion(t *testing.T) {
	db := &TSDB{}
	h := obs.Sample{
		Name: "lat_seconds", Labels: obs.FormatLabels([]string{"job", "api"}), Kind: obs.KindHistogram,
		Count: 10, Sum: 1.25,
		Buckets: []obs.BucketCount{
			{UpperBound: 0.1, Count: 7, Exemplar: &obs.Exemplar{TraceID: "t-slow", Value: 0.08}},
			{UpperBound: 1, Count: 9},
			{UpperBound: math.Inf(1), Count: 10},
		},
	}
	db.Append(ts(0), []obs.Sample{h})
	if got := db.SeriesCount(); got != 5 { // 3 buckets + sum + count
		t.Fatalf("SeriesCount = %d, want 5", got)
	}
	buckets := db.Latest("lat_seconds_bucket", nil, ts(0))
	if len(buckets) != 3 {
		t.Fatalf("bucket series = %d, want 3", len(buckets))
	}
	var sawExemplar bool
	for _, b := range buckets {
		if le, _ := pairValue(b.Pairs, "le"); le == "" {
			t.Errorf("bucket series %s lacks le label", b.Labels)
		}
		if b.Exemplar != nil && b.Exemplar.TraceID == "t-slow" {
			sawExemplar = true
		}
	}
	if !sawExemplar {
		t.Error("bucket exemplar did not survive TSDB append")
	}
	if sum := db.Latest("lat_seconds_sum", nil, ts(0)); len(sum) != 1 || sum[0].Points[0].V != 1.25 {
		t.Errorf("lat_seconds_sum = %+v", sum)
	}
	if cnt := db.Latest("lat_seconds_count", nil, ts(0)); len(cnt) != 1 || cnt[0].Points[0].V != 10 {
		t.Errorf("lat_seconds_count = %+v", cnt)
	}
}

func TestTSDBMarkStaleDropsInstantKeepsRange(t *testing.T) {
	db := &TSDB{}
	db.Append(ts(0), []obs.Sample{
		counterSample("up_total", 1, "instance", "a", "job", "ctlogd"),
		counterSample("up_total", 1, "instance", "b", "job", "staleapid"),
	})
	if n := db.MarkStale("job", "ctlogd", "instance", "a"); n != 1 {
		t.Fatalf("MarkStale marked %d series, want 1", n)
	}
	inst := db.Latest("up_total", nil, ts(1))
	if len(inst) != 1 || LabelsJob(inst[0]) != "staleapid" {
		t.Fatalf("instant answer after MarkStale = %+v, want only staleapid", inst)
	}
	rng := db.Select("up_total", nil, ts(-1), ts(1))
	if len(rng) != 2 {
		t.Fatalf("range answer after MarkStale = %d series, want 2 (history stays)", len(rng))
	}
	// A fresh append revives the series.
	db.Append(ts(5), []obs.Sample{counterSample("up_total", 2, "instance", "a", "job", "ctlogd")})
	if inst := db.Latest("up_total", nil, ts(5)); len(inst) != 2 {
		t.Fatalf("revived series missing from instant answer: %+v", inst)
	}
}

// LabelsJob extracts the job pair from a selection for test assertions.
func LabelsJob(sd SeriesData) string {
	v, _ := pairValue(sd.Pairs, "job")
	return v
}

func TestTSDBStaleAfterExcludesSilentSeries(t *testing.T) {
	db := &TSDB{StaleAfter: 30 * time.Second, Retention: 10 * time.Minute}
	db.Append(ts(0), []obs.Sample{counterSample("x_total", 1)})
	if inst := db.Latest("x_total", nil, ts(20)); len(inst) != 1 {
		t.Fatalf("series silent < StaleAfter excluded: %+v", inst)
	}
	if inst := db.Latest("x_total", nil, ts(40)); len(inst) != 0 {
		t.Fatalf("series silent > StaleAfter still answered: %+v", inst)
	}
}

func TestTSDBPruneReclaimsSeries(t *testing.T) {
	db := &TSDB{Retention: 30 * time.Second}
	db.Append(ts(0), []obs.Sample{counterSample("gone_total", 1)})
	db.Append(ts(100), []obs.Sample{counterSample("alive_total", 1)})
	if removed := db.Prune(ts(100)); removed != 1 {
		t.Fatalf("Prune removed %d, want 1", removed)
	}
	if got := db.SeriesCount(); got != 1 {
		t.Fatalf("SeriesCount after prune = %d, want 1", got)
	}
	if sel := db.Select("gone_total", nil, ts(-1000), ts(1000)); len(sel) != 0 {
		t.Fatalf("pruned series still selectable: %+v", sel)
	}
}

func TestTSDBLabelInterning(t *testing.T) {
	db := &TSDB{}
	labels := obs.FormatLabels([]string{"job", "api"})
	db.Append(ts(0), []obs.Sample{
		{Name: "a_total", Labels: strings.Clone(labels), Kind: obs.KindCounter, Value: 1},
		{Name: "b_total", Labels: strings.Clone(labels), Kind: obs.KindCounter, Value: 1},
	})
	a := db.Select("a_total", nil, ts(-1), ts(1))
	b := db.Select("b_total", nil, ts(-1), ts(1))
	if len(a) != 1 || len(b) != 1 {
		t.Fatal("selection failed")
	}
	// Interning: both series share one backing string for the label set.
	if unsafe.StringData(a[0].Labels) != unsafe.StringData(b[0].Labels) {
		t.Error("equal label sets not interned to one backing string")
	}
}

func TestMatcherOps(t *testing.T) {
	cases := []struct {
		op    MatchOp
		value string
		in    string
		want  bool
	}{
		{MatchEq, "a", "a", true},
		{MatchEq, "a", "b", false},
		{MatchNe, "a", "b", true},
		{MatchRe, "ctlogd|crld", "crld", true},
		{MatchRe, "ctlogd|crld", "crld-2", false}, // anchored
		{MatchNre, "5..", "200", true},
		{MatchNre, "5..", "503", false},
	}
	for _, c := range cases {
		m, err := NewMatcher("l", c.op, c.value)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Matches(c.in); got != c.want {
			t.Errorf("op %d value %q in %q = %v, want %v", c.op, c.value, c.in, got, c.want)
		}
	}
	if _, err := NewMatcher("l", MatchRe, "("); err == nil {
		t.Error("bad regex accepted")
	}
}
