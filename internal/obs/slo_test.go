package obs

import (
	"bytes"
	"log/slog"
	"math"
	"testing"
	"time"
)

// approx absorbs float64 rounding in burn-rate ratios.
func approx(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

func sloEngine(t *testing.T, reg *Registry, spec string) (*SLOEngine, *[]SLOAlert) {
	t.Helper()
	specs, err := ParseSLOSpecs(spec)
	if err != nil {
		t.Fatal(err)
	}
	var alerts []SLOAlert
	e := &SLOEngine{
		Reg:     reg,
		Service: "svc",
		Specs:   specs,
		Logger:  slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil)),
		OnAlert: func(a SLOAlert) { alerts = append(alerts, a) },
	}
	return e, &alerts
}

func gaugeValue(t *testing.T, reg *Registry, name string, labelPairs ...string) float64 {
	t.Helper()
	return reg.Gauge(name, labelPairs...).Value()
}

// TestSLOBurnRateExhaustionAndRecovery drives the availability objective
// through a full incident with a fake clock: total outage → both window
// pairs agree and fire, budget goes negative; sustained health → burn rates
// drop to zero, alerts resolve, budget recovers.
func TestSLOBurnRateExhaustionAndRecovery(t *testing.T) {
	reg := NewRegistry()
	e, alerts := sloEngine(t, reg, "availability:99") // 1% error budget
	ok := reg.Counter("http_requests_total", "service", "svc", "route", "/x", "code", "2xx")
	bad := reg.Counter("http_requests_total", "service", "svc", "route", "/x", "code", "5xx")

	t0 := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	e.Evaluate(t0)
	if got := gaugeValue(t, reg, "slo_burn_rate", "service", "svc", "slo", "availability", "window", "5m"); got != 0 {
		t.Fatalf("burn with no traffic = %v, want 0", got)
	}

	// Total outage: 100% errors for a minute. Burn = 1.0/0.01 = 100 in every
	// window (history shorter than all windows), so fast AND slow pairs
	// agree and both severities fire.
	bad.Add(100)
	e.Evaluate(t0.Add(time.Minute))
	for _, w := range []string{"5m", "1h", "6h", "3d"} {
		if got := gaugeValue(t, reg, "slo_burn_rate", "service", "svc", "slo", "availability", "window", w); !approx(got, 100) {
			t.Errorf("burn[%s] = %v, want 100", w, got)
		}
	}
	if got := gaugeValue(t, reg, "slo_alert_firing", "service", "svc", "slo", "availability", "severity", "page"); got != 1 {
		t.Errorf("page alert not firing: %v", got)
	}
	if got := gaugeValue(t, reg, "slo_alert_firing", "service", "svc", "slo", "availability", "severity", "ticket"); got != 1 {
		t.Errorf("ticket alert not firing: %v", got)
	}
	// Budget exhaustion: 100x burn means the remaining fraction is deeply
	// negative (1 - 100 = -99).
	if got := gaugeValue(t, reg, "slo_error_budget_remaining", "service", "svc", "slo", "availability"); !approx(got, -99) {
		t.Errorf("budget remaining = %v, want -99", got)
	}
	if len(*alerts) != 2 {
		t.Fatalf("alert transitions = %d, want 2 (page + ticket)", len(*alerts))
	}
	for _, a := range *alerts {
		if !a.Firing || a.Service != "svc" || a.SLO != "availability" {
			t.Errorf("unexpected alert %+v", a)
		}
	}

	// Recovery: errors stop, healthy traffic resumes, and enough time
	// passes that every window's delta is clean. All burn rates reset,
	// alerts resolve, budget returns to 1.
	ok.Add(100000)
	e.Evaluate(t0.Add(time.Minute + 73*time.Hour))
	for _, w := range []string{"5m", "1h", "6h", "3d"} {
		if got := gaugeValue(t, reg, "slo_burn_rate", "service", "svc", "slo", "availability", "window", w); got != 0 {
			t.Errorf("post-recovery burn[%s] = %v, want 0", w, got)
		}
	}
	for _, severity := range []string{"page", "ticket"} {
		if got := gaugeValue(t, reg, "slo_alert_firing", "service", "svc", "slo", "availability", "severity", severity); got != 0 {
			t.Errorf("%s alert still firing after recovery", severity)
		}
	}
	if got := gaugeValue(t, reg, "slo_error_budget_remaining", "service", "svc", "slo", "availability"); got != 1 {
		t.Errorf("budget remaining after recovery = %v, want 1", got)
	}
	if len(*alerts) != 4 {
		t.Fatalf("alert transitions = %d, want 4 (2 firing + 2 resolved)", len(*alerts))
	}
	if (*alerts)[2].Firing || (*alerts)[3].Firing {
		t.Error("resolution transitions should have Firing=false")
	}
}

// TestSLOFastSlowWindowDisagreement: a short sharp burst trips the fast
// pair; once the burst leaves the 5m window the page resolves while the
// long windows still remember the errors — the severities genuinely
// evaluate different windows.
func TestSLOFastSlowWindowDisagreement(t *testing.T) {
	reg := NewRegistry()
	e, _ := sloEngine(t, reg, "availability:99")
	ok := reg.Counter("http_requests_total", "service", "svc", "route", "/x", "code", "2xx")
	bad := reg.Counter("http_requests_total", "service", "svc", "route", "/x", "code", "5xx")

	t0 := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	ok.Add(1000)
	e.Evaluate(t0)
	// Sharp burst: 50% errors for 2 minutes.
	bad.Add(1000)
	ok.Add(1000)
	e.Evaluate(t0.Add(2 * time.Minute))
	if got := gaugeValue(t, reg, "slo_alert_firing", "service", "svc", "slo", "availability", "severity", "page"); got != 1 {
		t.Fatal("sharp burst should fire the page severity")
	}

	// 30 minutes of pure health: the 5m window is clean (page resolves)
	// but the 1h/6h/3d windows still contain the burst.
	ok.Add(10000)
	e.Evaluate(t0.Add(30 * time.Minute))
	ok.Add(10000)
	e.Evaluate(t0.Add(35 * time.Minute))
	if got := gaugeValue(t, reg, "slo_burn_rate", "service", "svc", "slo", "availability", "window", "5m"); got != 0 {
		t.Errorf("5m burn after clean half hour = %v, want 0", got)
	}
	if got := gaugeValue(t, reg, "slo_burn_rate", "service", "svc", "slo", "availability", "window", "3d"); got == 0 {
		t.Error("3d burn should still remember the burst")
	}
	if got := gaugeValue(t, reg, "slo_alert_firing", "service", "svc", "slo", "availability", "severity", "page"); got != 0 {
		t.Error("page severity should resolve once the fast window is clean")
	}
}

// TestSLOLatencyObjective checks the latency kind against the RED histogram,
// including the threshold-on-boundary case explicit bounds enable.
func TestSLOLatencyObjective(t *testing.T) {
	reg := NewRegistry()
	e, _ := sloEngine(t, reg, "latency:99:250ms")
	buckets := []float64{0.1, 0.25, 1}
	h := reg.Histogram("http_request_seconds", buckets, "service", "svc", "route", "/x")

	t0 := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	e.Evaluate(t0)
	// 99% fast, 1% slow: exactly at objective, burn = 1 in-window.
	for i := 0; i < 99; i++ {
		h.Observe(0.05)
	}
	h.Observe(0.5)
	e.Evaluate(t0.Add(time.Minute))
	name := "latency-250ms"
	if got := gaugeValue(t, reg, "slo_burn_rate", "service", "svc", "slo", name, "window", "5m"); !approx(got, 1) {
		t.Errorf("burn at exactly-objective = %v, want 1", got)
	}
	if got := gaugeValue(t, reg, "slo_alert_firing", "service", "svc", "slo", name, "severity", "page"); got != 0 {
		t.Error("burn of 1 must not page")
	}

	// Regression: 20% of requests slower than threshold → burn 20 ≥ 14.4.
	for i := 0; i < 300; i++ {
		h.Observe(0.05)
	}
	for i := 0; i < 100; i++ {
		h.Observe(0.9)
	}
	e.Evaluate(t0.Add(2 * time.Minute))
	if got := gaugeValue(t, reg, "slo_burn_rate", "service", "svc", "slo", name, "window", "5m"); got < 14.4 {
		t.Errorf("burn after regression = %v, want ≥ 14.4", got)
	}
	if got := gaugeValue(t, reg, "slo_alert_firing", "service", "svc", "slo", name, "severity", "page"); got != 1 {
		t.Error("sustained latency regression should page")
	}
}

func TestGoodUnderThresholdInterpolates(t *testing.T) {
	s := Sample{Kind: KindHistogram, Count: 100, Buckets: []BucketCount{
		{UpperBound: 0.1, Count: 40},
		{UpperBound: 0.3, Count: 80},
		{UpperBound: inf, Count: 100},
	}}
	// Threshold halfway through the (0.1, 0.3] bucket: 40 + 0.5*40 = 60.
	if got := goodUnderThreshold(s, 0.2); got != 60 {
		t.Errorf("interpolated good = %v, want 60", got)
	}
	// On a boundary: exact.
	if got := goodUnderThreshold(s, 0.1); got != 40 {
		t.Errorf("boundary good = %v, want 40", got)
	}
	// Above every finite bound: only finite-bucket observations are good.
	if got := goodUnderThreshold(s, 5); got != 80 {
		t.Errorf("above-range good = %v, want 80", got)
	}
}

func TestParseSLOSpecs(t *testing.T) {
	specs, err := ParseSLOSpecs("availability:99.9,latency:99:250ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("got %d specs", len(specs))
	}
	if specs[0].Kind != SLOAvailability || !approx(specs[0].Objective, 0.999) {
		t.Errorf("availability spec: %+v", specs[0])
	}
	if specs[1].Kind != SLOLatency || specs[1].Threshold != 250*time.Millisecond ||
		specs[1].Name != "latency-250ms" {
		t.Errorf("latency spec: %+v", specs[1])
	}
	for _, off := range []string{"", "off", "none"} {
		if s, err := ParseSLOSpecs(off); err != nil || len(s) != 0 {
			t.Errorf("%q should parse as no specs (got %v, %v)", off, s, err)
		}
	}
	for _, bad := range []string{"availability", "availability:0", "availability:100",
		"latency:99", "latency:99:zzz", "latency:99:-1s", "weird:50"} {
		if _, err := ParseSLOSpecs(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
