package stalecert_test

// Log-aggregation acceptance: the ISSUE's end-to-end criteria. First, a
// chaos-injected failing request must leave a stitched fleet trace whose ID
// retrieves log lines from BOTH daemons via the aggregator's
// /fleet/logs?trace= — and /fleet/traces/{id} must embed those same lines as
// the trace's drill-down. Second, a fired SLO burn-rate alert must leave a
// log-ring black-box snapshot (logs.jsonl) alongside the pprof files of the
// capture set it triggers.

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"stalecert/internal/fleettest"
	"stalecert/internal/obs"
	"stalecert/internal/resil"
)

// ringLogger logs as a daemon's logger does: teeing every record, with the
// request's trace ID, into the log ring its debug listener serves.
func ringLogger(m *fleettest.Member, component string) *slog.Logger {
	inner := slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelDebug})
	return slog.New(obs.NewTeeHandler(inner, m.Logs)).With("component", component)
}

// chaosSeedFor finds a seed whose deterministic fault stream injects exactly
// one fault on the first draw and none on the next few — the "one flaky
// attempt, then recovery" shape the retry loop is built for. Searching at
// runtime keeps the test honest across math/rand implementations.
func chaosSeedFor(t *testing.T, rate float64, cleanDraws int) int64 {
	t.Helper()
	for seed := int64(1); seed < 10000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		if rng.Float64() >= rate {
			continue // first request must fault
		}
		ok := true
		for i := 0; i < cleanDraws; i++ {
			if rng.Float64() < rate {
				ok = false
				break
			}
		}
		if ok {
			return seed
		}
	}
	t.Fatal("no chaos seed found")
	return 0
}

func TestChaosFailureCorrelatedAcrossFleetLogs(t *testing.T) {
	// ctlogd: healthy, but the evidence client reaches it through a seeded
	// fault proxy that 503s the first attempt. Its handler logs with the
	// request context, so the record carries the trace ID. Both daemons keep
	// every trace (-trace-sample 1).
	ct := fleettest.Serve(t, "ctlogd", 1)
	ctLogger := ringLogger(ct, "ctlogd")
	ctMux := http.NewServeMux()
	ctMux.HandleFunc("GET /ct/v1/get-sth", func(w http.ResponseWriter, r *http.Request) {
		ctLogger.InfoContext(r.Context(), "sth served", "tree_size", 17)
		w.Write([]byte(`{"tree_size":17}`))
	})
	ct.Handle(ctMux)

	// staleapid: fetches evidence through the resilience stack and the proxy,
	// logging the fetch outcome under the same request context.
	api := fleettest.Serve(t, "staleapid", 1)
	apiLogger := ringLogger(api, "staleapid")
	const faultRate = 0.5
	ctVia := fleettest.NewFaults(chaosSeedFor(t, faultRate, 4), fleettest.Rates{Status5xx: faultRate}).Proxy(t, ct.URL)
	evidenceClient := resil.InstrumentClient(nil, resil.Options{
		Service: "staleapid",
		Spans:   api.Spans,
		Policy: resil.Policy{
			MaxAttempts: 3,
			BaseDelay:   time.Millisecond,
			MaxDelay:    2 * time.Millisecond,
		},
	})
	apiMux := http.NewServeMux()
	apiMux.HandleFunc("GET /v1/domain/{e2ld}/staleness", func(w http.ResponseWriter, r *http.Request) {
		req, _ := http.NewRequestWithContext(r.Context(), http.MethodGet, ctVia+"/ct/v1/get-sth", nil)
		resp, err := evidenceClient.Do(req)
		if err != nil {
			apiLogger.ErrorContext(r.Context(), "evidence fetch failed", "err", err)
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			apiLogger.ErrorContext(r.Context(), "evidence fetch degraded", "status", resp.StatusCode)
		} else {
			apiLogger.InfoContext(r.Context(), "staleness verdict computed",
				"domain", r.PathValue("e2ld"), "evidence_status", resp.StatusCode)
		}
		w.Write([]byte(`{"domain":"` + r.PathValue("e2ld") + `","stale":[]}`))
	})
	api.Handle(apiMux)

	// One request with a caller-supplied traceparent so the ID is known.
	injectionsBefore := obs.Default().Counter("resil_chaos_injections_total", "kind", "status_5xx").Value()
	caller := obs.NewRequestID()
	req, _ := http.NewRequest(http.MethodGet, api.URL+"/v1/domain/example.com/staleness", nil)
	req.Header.Set(obs.TraceHeader, caller.String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("staleness request status %d", resp.StatusCode)
	}
	// The chaos transport must actually have failed the first attempt —
	// otherwise this test is not exercising the failing-request criterion.
	if got := obs.Default().Counter("resil_chaos_injections_total", "kind", "status_5xx").Value(); got == injectionsBefore {
		t.Fatal("chaos fault was not injected")
	}

	// Fleet assembly: one scrape round federates metrics, traces AND logs.
	agg, aggURL := fleettest.Aggregate(t, api, ct)
	agg.ScrapeOnce(context.Background())

	// Criterion 1: the stitched trace's ID retrieves >= 2 daemons' log lines
	// from /fleet/logs?trace=.
	lresp, err := http.Get(aggURL + "/fleet/logs?trace=" + caller.Trace())
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	if lresp.StatusCode != http.StatusOK {
		t.Fatalf("/fleet/logs?trace= status %d", lresp.StatusCode)
	}
	var logs []obs.LogRecord
	if err := json.NewDecoder(lresp.Body).Decode(&logs); err != nil {
		t.Fatal(err)
	}
	jobs := map[string]bool{}
	for _, rec := range logs {
		if rec.TraceID != caller.Trace() {
			t.Fatalf("record for wrong trace: %+v", rec)
		}
		if rec.Job == "" || rec.Instance == "" {
			t.Fatalf("federated record missing job/instance labels: %+v", rec)
		}
		jobs[rec.Job] = true
	}
	if !jobs["staleapid"] || !jobs["ctlogd"] {
		t.Fatalf("trace-correlated logs cover jobs %v, want both staleapid and ctlogd (records: %+v)", jobs, logs)
	}
	// Merged stream reads chronologically.
	for i := 1; i < len(logs); i++ {
		if logs[i].Time.Before(logs[i-1].Time) {
			t.Fatalf("fleet logs out of time order at %d: %+v", i, logs)
		}
	}

	// Criterion 2: the trace drill-down embeds the same correlated lines.
	tresp, err := http.Get(aggURL + "/fleet/traces/" + caller.Trace())
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("/fleet/traces/{id} status %d", tresp.StatusCode)
	}
	var tree obs.TraceTreeJSON
	if err := json.NewDecoder(tresp.Body).Decode(&tree); err != nil {
		t.Fatal(err)
	}
	if len(tree.Services) != 2 {
		t.Fatalf("stitched services = %v, want both daemons", tree.Services)
	}
	if len(tree.Logs) != len(logs) {
		t.Fatalf("trace drill-down embeds %d log lines, /fleet/logs?trace= returned %d", len(tree.Logs), len(logs))
	}

	// And the generic filters compose over the federated stream.
	qresp, err := http.Get(aggURL + "/fleet/logs?job=staleapid&q=staleness")
	if err != nil {
		t.Fatal(err)
	}
	defer qresp.Body.Close()
	var filtered []obs.LogRecord
	if err := json.NewDecoder(qresp.Body).Decode(&filtered); err != nil {
		t.Fatal(err)
	}
	if len(filtered) == 0 {
		t.Fatal("?job=&q= filter returned nothing")
	}
}

func TestSLOBurnAlertLeavesLogBlackBox(t *testing.T) {
	if testing.Short() {
		t.Skip("captures a CPU profile")
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	reg := obs.NewRegistry()
	ring := obs.NewLogRing()
	ring.Registry = reg
	// The log lines that preceded the incident — what the black box must ship.
	ring.Append(obs.LogRecord{Time: time.Now().UTC(), Level: "INFO", Service: "svc",
		Msg: "serving", TraceID: "pre-incident"})
	ring.Append(obs.LogRecord{Time: time.Now().UTC(), Level: "ERROR", Service: "svc",
		Msg: "backend wedged", Attrs: map[string]string{"err": "connection refused"}})

	dir := t.TempDir()
	capture := &obs.ProfileCapture{
		Dir:         dir,
		CPUDuration: 50 * time.Millisecond,
		Logger:      quiet,
		Logs:        ring,
	}

	specs, err := obs.ParseSLOSpecs("availability:99")
	if err != nil {
		t.Fatal(err)
	}
	fired := make(chan obs.SLOAlert, 8)
	engine := &obs.SLOEngine{
		Reg:     reg,
		Service: "svc",
		Specs:   specs,
		Logger:  quiet,
		// The same wiring Flags.Setup installs: a firing burn alert triggers
		// an async capture.
		OnAlert: func(a obs.SLOAlert) {
			if a.Firing {
				capture.TriggerAsync("slo-" + a.SLO + "-" + a.Severity)
				fired <- a
			}
		},
	}

	// Total outage under a fake clock: every request 5xx for a minute burns
	// the 1% budget at 100x — both severities fire.
	bad := reg.Counter("http_requests_total", "service", "svc", "route", "/x", "code", "5xx")
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	engine.Evaluate(t0)
	bad.Add(100)
	engine.Evaluate(t0.Add(time.Minute))

	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("SLO burn alert never fired")
	}

	// TriggerAsync runs the capture in the background; wait for it to land.
	deadline := time.Now().Add(10 * time.Second)
	var entries []obs.ProfileEntry
	for time.Now().Before(deadline) {
		if entries = capture.List(); len(entries) > 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(entries) == 0 {
		t.Fatal("alert-triggered capture never completed")
	}
	entry := entries[0]

	files := map[string]bool{}
	for _, f := range entry.Files {
		files[f] = true
	}
	if !files["cpu.pprof"] || !files[obs.LogSnapshotName] {
		t.Fatalf("capture set files = %v, want pprof profiles plus %s", entry.Files, obs.LogSnapshotName)
	}
	// Both live side by side on disk in the capture's ring directory.
	if _, err := os.Stat(filepath.Join(dir, entry.ID, "cpu.pprof")); err != nil {
		t.Fatalf("cpu profile missing: %v", err)
	}
	snap := filepath.Join(dir, entry.ID, obs.LogSnapshotName)
	recs, err := obs.ReadSnapshotFile(snap)
	if err != nil {
		t.Fatalf("log black box unreadable: %v", err)
	}
	if len(recs) != 2 || recs[1].Msg != "backend wedged" || recs[1].Attrs["err"] != "connection refused" {
		t.Fatalf("black box lost the pre-incident log lines: %+v", recs)
	}
}
