// Command obsagg is the fleet observability aggregator: it scrapes every
// configured daemon's /metrics, /v1/traces and /v1/logs endpoints on an
// interval, merges the metric series under added job/instance labels,
// stitches the per-daemon trace fragments into fleet-wide span trees, and
// merges the per-daemon log rings into one time-ordered instance-labelled
// log stream — one Prometheus scrape target, one trace query surface and one
// log query surface for the whole deployment — plus a plain-text fleet
// summary. Scrape failures, jobs whose server error rate crosses 10%
// (errorRateThreshold), stitched traces slower than 1s (traceSlow),
// federated SLO burn-rate alerts (slo_alert_firing on any target) and
// per-job error-log bursts above one record/s (errorBurstThreshold) raise
// structured log alerts; a still-active alert re-fires after 5 quiet minutes
// (alertRearm). The fleet view keeps 512 stitched traces (fleetTraceBuffer)
// and 4 096 log records (fleetLogBuffer), and obsagg's own series under
// job="obsagg" (selfJob); these are constants in internal/obsagg. Every
// round's samples are also appended to an in-memory
// time-series database (15 minutes of history, at most 50 000 series)
// that answers instant and range expression queries at /fleet/query —
// rate(), irate(), count_over_time(), histogram_quantile(), sum/min/max by
// label, arithmetic and comparisons — and drives -record recording rules and
// -alert-rule alert rules, evaluated each round on the same engine as the
// built-in alert families.
//
// Usage:
//
//	obsagg -targets ctlogd=http://127.0.0.1:9090,crld=http://127.0.0.1:9091 \
//	       [-addr 127.0.0.1:8790] [-scrape-interval 10s]
//	       [-record name=expr ...] [-alert-rule name=expr ...]
//	       [-retry-max 4] [observability flags: obs.BindServingFlags]
//
// Scrapes run through the resilience layer (retries + per-peer circuit
// breakers). When some targets are down the aggregator keeps serving their
// last-good series: /metrics carries an X-Stale-Evidence header naming the
// down targets and /readyz reports 200-degraded instead of 503.
//
// Endpoints:
//
//	/metrics            federated exposition across every target (+ obsagg's own series)
//	/fleet              plain-text per-target summary (up/down, series counts, failures)
//	/fleet/traces       stitched cross-daemon trace summaries (?route=, ?min_ms=, ?error=1, ?spans=1)
//	/fleet/traces/{id}  one stitched trace as a span tree + its correlated log lines
//	/fleet/logs         merged per-daemon log rings, time-ordered and instance-labelled
//	                    (?level=, ?trace=, ?since=, ?q=, ?limit=, ?job=, ?instance=)
//	/fleet/query        expression queries over the TSDB: ?query= with ?time=
//	                    (instant) or ?start=&end=&step= (range); the fleet's SLO
//	                    posture is `max by (job, slo, window) (slo_burn_rate)`
//	/healthz            liveness
//	/readyz             ready once the first scrape round completes
package main

import (
	"context"
	"flag"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"stalecert/internal/obs"
	"stalecert/internal/obsagg"
	"stalecert/internal/resil"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8790", "listen address for the federated surface")
	targets := flag.String("targets", "", "comma-separated job=URL scrape targets (required)")
	interval := flag.Duration("scrape-interval", 10*time.Second, "scrape interval")
	var recordingRules []obsagg.RecordingRule
	flag.Func("record", "recording rule name=expr, evaluated each round into the TSDB (repeatable)",
		func(spec string) error {
			r, err := obsagg.ParseRecordingRule(spec)
			if err != nil {
				return err
			}
			recordingRules = append(recordingRules, r)
			return nil
		})
	var alertRules []obsagg.AlertRule
	flag.Func("alert-rule", "alert rule name=expr, logged and counted while breaching (repeatable)",
		func(spec string) error {
			r, err := obsagg.ParseAlertRule(spec)
			if err != nil {
				return err
			}
			alertRules = append(alertRules, r)
			return nil
		})
	obsFlags := obs.BindServingFlags(flag.CommandLine)
	var rf resil.Flags
	rf.BindFlags(flag.CommandLine)
	flag.Parse()

	logger, stopDebug := obsFlags.Setup("obsagg")

	if *targets == "" {
		logger.Error("-targets is required (job=URL,...)")
		os.Exit(2)
	}
	parsed, err := obsagg.ParseTargets(*targets)
	if err != nil {
		logger.Error("bad -targets", "err", err)
		os.Exit(2)
	}

	// The TSDB keeps its zero-value defaults.
	agg := &obsagg.Aggregator{
		Targets:        parsed,
		Logger:         logger,
		RecordingRules: recordingRules,
		AlertRules:     alertRules,
		Client:         resil.NewHTTPClient(rf.Options("obsagg")),
	}
	obs.DefaultHealth().Register("first-scrape-round", agg.Ready)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go agg.Run(ctx, *interval)

	mux := http.NewServeMux()
	fleet := agg.Handler()
	mux.Handle("/metrics", fleet)
	mux.Handle("/fleet", fleet)
	mux.Handle("/fleet/", fleet)
	mux.HandleFunc("GET /healthz", obs.DefaultHealth().Healthz)
	mux.HandleFunc("GET /readyz", obs.DefaultHealth().Readyz)
	handler := obs.Middleware(obs.Default(), "obsagg", mux)

	logger.Info("serving federated metrics", "targets", len(parsed), "addr", *addr,
		"interval", interval.String(),
		"endpoints", "/metrics /fleet /fleet/traces /fleet/traces/{id} /fleet/logs /fleet/query /healthz /readyz")

	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	if !obs.ServeUntilDone(ctx, logger, httpSrv, nil, stopDebug) {
		os.Exit(1)
	}
}
