package obs

import (
	"cmp"
	"context"
	"fmt"
	"log/slog"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file implements the declarative SLO engine: specs over the RED
// metrics the Middleware already records (availability from
// http_requests_total, latency from http_request_seconds), evaluated with
// multi-window multi-burn-rate rules (Google SRE workbook style: a fast
// 5m+1h pair that pages on sharp burns, a slow 6h+3d pair that tickets on
// sustained ones). Every daemon exposes the results as slo_burn_rate,
// slo_error_budget_remaining and slo_alert_firing metric families; obsagg
// federates them into its TSDB, where /fleet/query answers fleet-wide SLO
// questions and the fleet-slo-burn rule re-raises firing alerts.

// SLOKind discriminates objective types.
type SLOKind string

// SLO objective kinds.
const (
	// SLOAvailability counts non-5xx responses as good events.
	SLOAvailability SLOKind = "availability"
	// SLOLatency counts responses at or under Threshold as good events.
	SLOLatency SLOKind = "latency"
)

// SLOSpec is one declarative objective over a service's RED metrics.
type SLOSpec struct {
	// Name labels the exported series; defaults to the kind (plus threshold
	// for latency), e.g. "availability" or "latency-250ms".
	Name string
	Kind SLOKind
	// Objective is the target good-event fraction, e.g. 0.999.
	Objective float64
	// Threshold is the latency objective's good/bad boundary.
	Threshold time.Duration
}

// ErrorBudget returns the tolerated bad-event fraction (1 - objective).
func (s SLOSpec) ErrorBudget() float64 { return 1 - s.Objective }

// ParseSLOSpecs parses the -slo flag syntax: comma-separated objectives,
// each `availability:<percent>` or `latency:<percent>:<threshold>`, e.g.
//
//	availability:99.9,latency:99:250ms
//
// The empty string, "off" and "none" parse as no objectives.
func ParseSLOSpecs(spec string) ([]SLOSpec, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" || spec == "none" {
		return nil, nil
	}
	var out []SLOSpec
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		kind := SLOKind(fields[0])
		switch kind {
		case SLOAvailability:
			if len(fields) != 2 {
				return nil, fmt.Errorf("obs: bad SLO %q (want availability:<percent>)", part)
			}
		case SLOLatency:
			if len(fields) != 3 {
				return nil, fmt.Errorf("obs: bad SLO %q (want latency:<percent>:<threshold>)", part)
			}
		default:
			return nil, fmt.Errorf("obs: unknown SLO kind %q", fields[0])
		}
		pct, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || pct <= 0 || pct >= 100 {
			return nil, fmt.Errorf("obs: bad SLO objective %q (want a percent in (0,100))", fields[1])
		}
		s := SLOSpec{Kind: kind, Objective: pct / 100, Name: string(kind)}
		if kind == SLOLatency {
			thr, err := time.ParseDuration(fields[2])
			if err != nil || thr <= 0 {
				return nil, fmt.Errorf("obs: bad SLO latency threshold %q", fields[2])
			}
			s.Threshold = thr
			s.Name = fmt.Sprintf("latency-%s", thr)
		}
		out = append(out, s)
	}
	return out, nil
}

// sloWindow is one evaluation window.
type sloWindow struct {
	Name string
	Dur  time.Duration
}

// sloWindows is the multi-window set: the first two are the fast (paging)
// pair, the last two the slow (ticket) pair.
var sloWindows = [4]sloWindow{
	{"5m", 5 * time.Minute},
	{"1h", time.Hour},
	{"6h", 6 * time.Hour},
	{"3d", 72 * time.Hour},
}

// Burn-rate thresholds: the fast pair pages when the budget burns 14.4x
// faster than sustainable (a 99.9% monthly budget gone in 2 days), the slow
// pair tickets at 1x (budget exactly exhausted by period end).
const (
	sloFastBurn = 14.4
	sloSlowBurn = 1.0
)

// SLOAlert describes one burn-rate alert transition.
type SLOAlert struct {
	Service  string
	SLO      string
	Severity string // "page" (fast pair) or "ticket" (slow pair)
	BurnRate float64
	Window   string
	Firing   bool
}

// sloSample is one cumulative good/total reading.
type sloSample struct {
	at          time.Time
	good, total float64
}

// sloState tracks one spec's sample ring and alert latches.
type sloState struct {
	spec         SLOSpec
	ring         []sloSample
	firingFast   bool
	firingSlow   bool
	burnByWindow map[string]float64
}

// SLOEngine periodically samples a registry's RED metrics, maintains
// windowed good/total deltas per spec, and exports:
//
//	slo_burn_rate{service,slo,window}        budget-burn multiple per window
//	slo_error_budget_remaining{service,slo}  fraction of the longest window's
//	                                         budget still unspent (can go negative)
//	slo_alert_firing{service,slo,severity}   1 while a burn-rate rule fires
//	slo_alerts_total{service,slo,severity}   transitions into firing
//
// Evaluation is driven either by Run's ticker or by explicit Evaluate calls
// with a caller-controlled clock (tests).
type SLOEngine struct {
	// Reg is both the metrics source and the export target (nil: Default()).
	Reg *Registry
	// Service scopes the RED series the engine reads.
	Service string
	Specs   []SLOSpec
	// Interval is Run's sampling period (default 10s).
	Interval time.Duration
	// Logger receives alert transitions (nil: slog.Default()).
	Logger *slog.Logger
	// OnAlert, when set, observes every alert transition (both directions);
	// Setup uses it to trigger profile captures.
	OnAlert func(SLOAlert)

	mu     sync.Mutex
	states []*sloState
}

func (e *SLOEngine) reg() *Registry { return cmp.Or(e.Reg, Default()) }

func (e *SLOEngine) logger() *slog.Logger { return cmp.Or(e.Logger, slog.Default()) }

// Run evaluates immediately and then on every Interval tick until ctx ends.
func (e *SLOEngine) Run(ctx context.Context) {
	interval := e.Interval
	if interval <= 0 {
		interval = 10 * time.Second
	}
	e.Evaluate(time.Now())
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			e.Evaluate(time.Now())
		}
	}
}

// collect reads the cumulative good/total event counts for one spec from the
// registry snapshot.
func collectSLO(samples []Sample, service string, spec SLOSpec) (good, total float64) {
	switch spec.Kind {
	case SLOAvailability:
		for _, s := range samples {
			if s.Name != "http_requests_total" || LabelValue(s, "service") != service {
				continue
			}
			total += s.Value
			if LabelValue(s, "code") != "5xx" {
				good += s.Value
			}
		}
	case SLOLatency:
		for _, s := range samples {
			if s.Name != "http_request_seconds" || s.Kind != KindHistogram ||
				LabelValue(s, "service") != service {
				continue
			}
			total += float64(s.Count)
			good += goodUnderThreshold(s, spec.Threshold.Seconds())
		}
	}
	return good, total
}

// goodUnderThreshold estimates how many of a histogram's observations fell
// at or under the threshold, interpolating linearly within the straddling
// bucket. A bucket boundary on the threshold makes the count exact.
func goodUnderThreshold(s Sample, threshold float64) float64 {
	prevBound, prevCum := 0.0, 0.0
	for _, b := range s.Buckets {
		if b.UpperBound >= threshold {
			if math.IsInf(b.UpperBound, 1) {
				return prevCum // everything above the last finite bound is bad
			}
			width := b.UpperBound - prevBound
			if width <= 0 {
				return float64(b.Count)
			}
			frac := (threshold - prevBound) / width
			return prevCum + frac*(float64(b.Count)-prevCum)
		}
		prevBound, prevCum = b.UpperBound, float64(b.Count)
	}
	return prevCum
}

// windowDelta returns the good/total deltas over the window ending at the
// ring's newest sample, using the newest sample at or before the window
// start (falling back to the oldest while history is still shorter than the
// window).
func windowDelta(ring []sloSample, window time.Duration) (good, total float64) {
	if len(ring) < 2 {
		return 0, 0
	}
	newest := ring[len(ring)-1]
	cutoff := newest.at.Add(-window)
	ref := ring[0]
	for _, s := range ring {
		if s.at.After(cutoff) {
			break
		}
		ref = s
	}
	return newest.good - ref.good, newest.total - ref.total
}

// Evaluate takes one sample at now and refreshes every exported series.
// Exposed (with a caller-supplied clock) so tests can drive window math
// deterministically.
func (e *SLOEngine) Evaluate(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.states == nil {
		for _, spec := range e.Specs {
			e.states = append(e.states, &sloState{spec: spec, burnByWindow: make(map[string]float64)})
		}
	}
	reg := e.reg()
	snap := reg.Snapshot()
	windows := sloWindows
	longest := windows[len(windows)-1]

	for _, st := range e.states {
		good, total := collectSLO(snap, e.Service, st.spec)
		st.ring = append(st.ring, sloSample{at: now, good: good, total: total})
		// Keep one sample beyond the longest window so windowDelta always
		// has a reference point at or before the cutoff.
		cutoff := now.Add(-longest.Dur)
		drop := 0
		for drop < len(st.ring)-1 && !st.ring[drop+1].at.After(cutoff) {
			drop++
		}
		st.ring = st.ring[drop:]

		budget := st.spec.ErrorBudget()
		for _, w := range windows {
			g, t := windowDelta(st.ring, w.Dur)
			burn := 0.0
			if t > 0 && budget > 0 {
				burn = ((t - g) / t) / budget
			}
			st.burnByWindow[w.Name] = burn
			reg.Gauge("slo_burn_rate", "service", e.Service, "slo", st.spec.Name, "window", w.Name).Set(burn)
		}
		// Budget remaining over the longest window: 1 - consumed fraction.
		g, t := windowDelta(st.ring, longest.Dur)
		remaining := 1.0
		if t > 0 && budget > 0 {
			remaining = 1 - ((t-g)/t)/budget
		}
		reg.Gauge("slo_error_budget_remaining", "service", e.Service, "slo", st.spec.Name).Set(remaining)

		e.latch(st, "page", windows[0], windows[1], sloFastBurn, &st.firingFast)
		e.latch(st, "ticket", windows[2], windows[3], sloSlowBurn, &st.firingSlow)
	}
}

// latch updates one severity's firing state: the rule fires while BOTH
// windows burn at or above the threshold (the short window confirms the
// burn is current, the long one that it is material), and resolves when
// either drops below.
func (e *SLOEngine) latch(st *sloState, severity string, short, long sloWindow, threshold float64, firing *bool) {
	reg := e.reg()
	shortBurn := st.burnByWindow[short.Name]
	longBurn := st.burnByWindow[long.Name]
	now := shortBurn >= threshold && longBurn >= threshold
	gauge := reg.Gauge("slo_alert_firing", "service", e.Service, "slo", st.spec.Name, "severity", severity)
	if now == *firing {
		gauge.Set(boolGauge(now))
		return
	}
	*firing = now
	gauge.Set(boolGauge(now))
	alert := SLOAlert{
		Service: e.Service, SLO: st.spec.Name, Severity: severity,
		BurnRate: shortBurn, Window: short.Name, Firing: now,
	}
	if now {
		reg.Counter("slo_alerts_total", "service", e.Service, "slo", st.spec.Name, "severity", severity).Inc()
		e.logger().Warn("slo burn-rate alert firing", "service", e.Service,
			"slo", st.spec.Name, "severity", severity,
			"burn_short", shortBurn, "burn_long", longBurn,
			"windows", short.Name+"+"+long.Name, "threshold", threshold)
	} else {
		e.logger().Info("slo burn-rate alert resolved", "service", e.Service,
			"slo", st.spec.Name, "severity", severity)
	}
	if e.OnAlert != nil {
		e.OnAlert(alert)
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
