package obsagg

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"stalecert/internal/obs"
)

// This file implements obsagg's rules engine: recording rules materialise
// query expressions back into the TSDB as new series each scrape round, and
// alert rules log + count every labelled result their expression yields,
// under the fleet-wide re-arm policy. The three hand-coded alert families
// that predate the engine — per-job error rate, SLO burn, and error-log
// burst — are expressed as built-in rules on the same machinery, keeping
// their messages, counter names and re-arm semantics byte-compatible.
//
// Evaluation order within a round: recording rules first (in declaration
// order, each one's output visible to the next), then alert rules — so an
// alert can watch a just-recorded series.

// RecordingRule evaluates Expr each scrape round and appends the resulting
// vector to the TSDB under Name (as gauge series), queryable like any
// scraped family.
type RecordingRule struct {
	Name string
	Expr string
}

// AlertRule evaluates Expr each scrape round; every sample the expression
// yields (comparisons filter, so "only while breaching") fires one alert:
// a Warn log with Message plus the result labels, and an increment of the
// Metric counter labelled by MetricLabels.
type AlertRule struct {
	Name string
	Expr string
	// Message is the slog message logged when firing (default "alert rule firing").
	Message string
	// Metric is the counter family incremented per firing ("" = obsagg_rule_alerts_total).
	Metric string
	// MetricLabels are result-label keys copied onto the counter (nil: a
	// single "rule" label carrying the rule name).
	MetricLabels []string
	// KeyLabels are the result-label keys forming the re-arm identity
	// (nil: the full result label set).
	KeyLabels []string
	// FireEvery bypasses re-arm tracking: the rule logs every round it
	// breaches (the legacy error-rate behaviour).
	FireEvery bool
	// Annotate returns extra slog attrs for a firing (may be nil).
	Annotate func(pairs []string, value float64) []any
}

func splitRuleSpec(spec string) (name, expr string, err error) {
	eq := strings.Index(spec, "=")
	if eq <= 0 || eq == len(spec)-1 {
		return "", "", fmt.Errorf("obsagg: rule spec %q must be name=expr", spec)
	}
	name = strings.TrimSpace(spec[:eq])
	expr = strings.TrimSpace(spec[eq+1:])
	if !obs.ValidMetricName(name) {
		return "", "", fmt.Errorf("obsagg: rule name %q is not a valid metric name", name)
	}
	if _, err := ParseQuery(expr); err != nil {
		return "", "", fmt.Errorf("obsagg: rule %s: %w", name, err)
	}
	return name, expr, nil
}

// ParseRecordingRule parses a -record flag value ("name=expr").
func ParseRecordingRule(spec string) (RecordingRule, error) {
	name, expr, err := splitRuleSpec(spec)
	if err != nil {
		return RecordingRule{}, err
	}
	return RecordingRule{Name: name, Expr: expr}, nil
}

// ParseAlertRule parses an -alert-rule flag value ("name=expr").
func ParseAlertRule(spec string) (AlertRule, error) {
	name, expr, err := splitRuleSpec(spec)
	if err != nil {
		return AlertRule{}, err
	}
	return AlertRule{Name: name, Expr: expr}, nil
}

// tsdb returns the aggregator's TSDB, lazily creating a default-configured
// one. Never call while holding a.mu.
func (a *Aggregator) tsdb() *TSDB {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.TSDB == nil {
		a.TSDB = &TSDB{}
	}
	return a.TSDB
}

var (
	parsedRulesMu sync.Mutex
	parsedRules   = map[string]exprNode{}
)

func parseCached(expr string) (exprNode, error) {
	parsedRulesMu.Lock()
	defer parsedRulesMu.Unlock()
	if n, ok := parsedRules[expr]; ok {
		return n, nil
	}
	n, err := ParseQuery(expr)
	if err != nil {
		return nil, err
	}
	parsedRules[expr] = n
	return n, nil
}

// builtinAlertRules assembles the legacy alert families as rules, driven by
// the aggregator's existing thresholds.
func (a *Aggregator) builtinAlertRules() []AlertRule {
	var rules []AlertRule
	if a.ErrorRateThreshold > 0 {
		t := strconv.FormatFloat(a.ErrorRateThreshold, 'g', -1, 64)
		rules = append(rules, AlertRule{
			Name: "fleet-error-rate",
			Expr: `sum by (job) (http_requests_total{code="5xx"}) / sum by (job) (http_requests_total) > ` + t,
			// Log every breaching round, like the legacy alertErrorRates.
			Message:   "error rate above threshold",
			FireEvery: true,
			Metric:    "obsagg_error_rate_alerts_total",
			Annotate: func(pairs []string, v float64) []any {
				return []any{"threshold", a.ErrorRateThreshold}
			},
		})
	}
	rules = append(rules, AlertRule{
		Name:         "fleet-slo-burn",
		Expr:         `max by (instance, job, severity, slo) (slo_alert_firing) >= 1`,
		Message:      "fleet slo burn-rate alert",
		Metric:       "obsagg_slo_alerts_total",
		MetricLabels: []string{"job", "severity"},
		KeyLabels:    []string{"job", "slo", "severity"},
		Annotate:     a.annotateSLOBurn,
	})
	if a.ErrorBurstThreshold > 0 {
		// irate (the last two appended points) reproduces the legacy
		// "delta since last check / elapsed" burst detector, including its
		// restart re-baselining: a counter reset contributes only the
		// post-restart value, which stays under any sane threshold.
		window := a.tsdb().retention().String()
		t := strconv.FormatFloat(a.ErrorBurstThreshold, 'g', -1, 64)
		rules = append(rules, AlertRule{
			Name:         "fleet-error-burst",
			Expr:         `sum by (job) (irate(log_records_total{level="error"}[` + window + `])) > ` + t,
			Message:      "fleet error-log burst",
			Metric:       "obsagg_error_burst_alerts_total",
			MetricLabels: []string{"job"},
			KeyLabels:    []string{"job"},
			Annotate: func(pairs []string, v float64) []any {
				job, _ := pairValue(pairs, "job")
				return []any{"threshold_per_s", a.ErrorBurstThreshold,
					"hint", "/fleet/logs?level=error&job=" + job}
			},
		})
	}
	return rules
}

// annotateSLOBurn decorates a firing SLO rule with the burn rate per window
// and the error budget left, as the TSDB last saw them for the firing
// (instance, job, slo).
func (a *Aggregator) annotateSLOBurn(pairs []string, _ float64) []any {
	var ms []Matcher
	for _, k := range []string{"instance", "job", "slo"} {
		v, _ := pairValue(pairs, k)
		ms = append(ms, Matcher{Key: k, Op: MatchEq, Value: v})
	}
	latest := func(op, metric string, by ...string) []vecSample {
		v, _ := evalInstant(a.tsdb(), aggNode{op: op, by: by, arg: selectorNode{name: metric, matchers: ms}}, a.now())
		vec, _ := v.([]vecSample)
		return vec
	}
	var burns []string
	for _, s := range latest("max", "slo_burn_rate", "window") {
		w, _ := pairValue(s.pairs, "window")
		burns = append(burns, w+"="+obs.FormatFloat(s.v))
	}
	budget := 1.0 // no budget series yet: nothing consumed
	if b := latest("min", "slo_error_budget_remaining"); len(b) == 1 {
		budget = b[0].v
	}
	return []any{"burn_rates", strings.Join(burns, " "), "budget_remaining", budget}
}

// evalRules runs the round's recording rules then alert rules against the
// TSDB. Called at the end of every scrape round.
func (a *Aggregator) evalRules() {
	db := a.tsdb()
	now := a.now()
	for _, r := range a.RecordingRules {
		node, err := parseCached(r.Expr)
		if err != nil {
			a.logger().Warn("recording rule parse failed", "rule", r.Name, "err", err)
			continue
		}
		v, err := evalInstant(db, node, now)
		if err != nil {
			a.logger().Warn("recording rule eval failed", "rule", r.Name, "err", err)
			continue
		}
		vec := vectorOf(v)
		samples := make([]obs.Sample, 0, len(vec))
		for _, s := range vec {
			samples = append(samples, obs.Sample{Name: r.Name, Labels: s.labels, Kind: obs.KindGauge, Value: s.v})
		}
		db.Append(now, samples)
	}
	rules := a.builtinAlertRules()
	rules = append(rules, a.AlertRules...)
	for _, r := range rules {
		a.evalAlertRule(db, r, now)
	}
}

func (a *Aggregator) evalAlertRule(db *TSDB, r AlertRule, now time.Time) {
	node, err := parseCached(r.Expr)
	if err != nil {
		a.logger().Warn("alert rule parse failed", "rule", r.Name, "err", err)
		return
	}
	v, err := evalInstant(db, node, now)
	if err != nil {
		a.logger().Warn("alert rule eval failed", "rule", r.Name, "err", err)
		return
	}
	for _, s := range vectorOf(v) {
		key := r.Name
		if r.KeyLabels != nil {
			for _, k := range r.KeyLabels {
				kv, _ := pairValue(s.pairs, k)
				key += "/" + kv
			}
		} else {
			key += "/" + s.labels
		}
		fire := r.FireEvery
		if !fire {
			a.mu.Lock()
			if a.ruleAlerts == nil {
				a.ruleAlerts = make(map[string]time.Time)
			}
			last, seen := a.ruleAlerts[key]
			fire = !seen || (a.AlertRearm > 0 && now.Sub(last) >= a.AlertRearm)
			if fire {
				a.ruleAlerts[key] = now
			}
			a.mu.Unlock()
		}
		if !fire {
			continue
		}
		msg := r.Message
		if msg == "" {
			msg = "alert rule firing"
		}
		attrs := []any{"rule", r.Name}
		for i := 0; i+1 < len(s.pairs); i += 2 {
			attrs = append(attrs, s.pairs[i], s.pairs[i+1])
		}
		attrs = append(attrs, "value", s.v)
		if r.Annotate != nil {
			attrs = append(attrs, r.Annotate(s.pairs, s.v)...)
		}
		a.logger().Warn(msg, attrs...)
		metric := r.Metric
		if metric == "" {
			metric = "obsagg_rule_alerts_total"
		}
		var counterLabels []string
		if r.MetricLabels != nil {
			for _, k := range r.MetricLabels {
				kv, _ := pairValue(s.pairs, k)
				counterLabels = append(counterLabels, k, kv)
			}
		} else {
			counterLabels = []string{"rule", r.Name}
		}
		a.reg().Counter(metric, counterLabels...).Inc()
	}
}
