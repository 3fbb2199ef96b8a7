package stalecert_test

// Binary fleet smoke: the one test that runs the cmd/ mains, which have no
// tests of their own. What the fleet does is asserted in-process by the
// acceptance tests; this asserts only what they cannot see — that each main
// parses its flags and wires them to those libraries: -shard, -crl,
// -shards a|b,c|d, -hedge-after, -targets, -trace-sample, -chaos-*,
// -slo-interval, -profile-dir, the live PUT /v1/loglevel, the stalestat CLI,
// stalewatch's alerts being the reference replica's verdicts, and a killed
// replica leaving a running gateway ready.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os/exec"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"stalecert/internal/fleettest"
	"stalecert/internal/loadgen"
	"stalecert/internal/obs"
	"stalecert/internal/staleapi"
	"stalecert/internal/stalegw"
	"stalecert/internal/x509sim"
)

func TestBinaryFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the cmd/ binaries")
	}
	domains, certs, _ := plainCorpus(t, "smoke", "smoke-revoked.com", 24)
	// plainCorpus's certificates expired years before the fleet's day. One
	// more for smoke-revoked.com is valid on it, and was throughout the year
	// crld dates its seeded revocations in (serials 1..100 of every CA).
	live, err := x509sim.New(50, 1, 50, []string{"smoke-revoked.com"}, fleettest.Day-400, fleettest.Day+400)
	if err != nil {
		t.Fatal(err)
	}
	certs = append(certs, live)
	f := fleettest.StartBinaries(t, fleettest.Spec{Name: "smoke", Certs: certs,
		Slices: 2, Replicas: 2, HedgeAfter: 50 * time.Microsecond})
	gw := f.Gateway
	positive := func(m *fleettest.Member, family string, labels ...string) error {
		if m.Scrape().Sum(family, labels...) <= 0 {
			return fmt.Errorf("%s: no %s%v counted", m.Name, family, labels)
		}
		return nil
	}

	// -chaos-server-latency, -slo-interval, -profile-dir: every request of this
	// staleapid overshoots the default 250ms latency objective. It burns while
	// the rest of the test runs and is checked last.
	slo := fleettest.Spawn(t, "staleapid-slo", "-store", t.TempDir(), "-log", f.Log.URL, "-interval", "100ms",
		"-chaos-server-latency", "300ms", "-chaos-server-latency-rate", "1", "-slo-interval", "1s", "-profile-dir", t.TempDir())
	for i := 0; i < 8; i++ {
		go http.Get(slo.URL + "/v1/domain/" + domains[i] + "/certs")
	}

	// -shard i/N: the slices partition the log, and siblings hold the same one.
	total := 0
	for s, group := range f.Replicas {
		var held []int
		for _, m := range group {
			var self struct{ Certs int }
			if _, body := m.Get("/v1/shardmap"); json.Unmarshal([]byte(body), &self) != nil || self.Certs == 0 {
				t.Fatalf("%s /v1/shardmap: %s", m.Name, body)
			}
			held = append(held, self.Certs)
		}
		if held[0] != held[1] {
			t.Fatalf("slice %d: siblings hold %v certs", s, held)
		}
		total += held[0]
	}
	if total != len(certs) {
		t.Fatalf("slices hold %d certs, the log %d", total, len(certs))
	}
	// -crl: ready means the snapshot loaded from crld.
	for _, m := range slices.Concat(f.Replicas...) {
		if _, body := fleettest.Get(t, m.Debug+"/readyz"); !strings.Contains(body, "ready crl-snapshot") {
			t.Fatalf("%s /readyz lacks the crl-snapshot probe:\n%s", m.Name, body)
		}
		if err := positive(m, "crl_snapshot_refresh_total", `outcome="ok"`); err != nil {
			t.Fatal(err)
		}
	}

	// stalewatch -once -jsonl against the same log and crld: its alerts are the
	// reference replica's verdicts for certificates still valid on the day,
	// and the store it leaves is one staleapid resumes from without refetching.
	watchDir := t.TempDir()
	watched, err := exec.Command(fleettest.Bin(t, "stalewatch"), "-once", "-jsonl", "-log", f.Log.URL, "-crl", f.CRL.URL,
		"-now", fleettest.Day.String(), "-store", watchDir).Output()
	if err != nil {
		t.Fatalf("stalewatch: %v\n%s", err, watched)
	}
	var alerts, verdicts []string
	for _, line := range strings.Split(strings.TrimSpace(string(watched)), "\n") {
		var a struct {
			Kind, Domain, Fingerprint string
			EventDay                  string `json:"event_day"`
		}
		if err := json.Unmarshal([]byte(line), &a); err != nil {
			t.Fatalf("stalewatch line %q: %v", line, err)
		}
		if !strings.HasPrefix(a.Kind, "breaker_") {
			alerts = append(alerts, fmt.Sprint(a.Domain, " ", a.Fingerprint, " ", a.Kind, " ", a.EventDay))
		}
	}
	kinds := map[string]string{"Revoked: all": "revoked-but-valid", "Domain registrant change": "registrant-change",
		"Managed TLS departure": "managed-tls-departure"}
	byFP := map[string]*x509sim.Certificate{}
	for _, c := range certs {
		byFP[c.Fingerprint().Hex()] = c
	}
	for _, d := range domains {
		var resp staleapi.StalenessResponse
		if _, body := f.Reference.Get("/v1/domain/" + d + "/staleness"); json.Unmarshal([]byte(body), &resp) != nil {
			t.Fatalf("reference staleness for %s: %s", d, body)
		}
		for _, v := range resp.Stale {
			if byFP[v.Fingerprint].ValidOn(fleettest.Day) {
				verdicts = append(verdicts, fmt.Sprint(d, " ", v.Fingerprint, " ", kinds[v.Method], " ", v.EventDay))
			}
		}
	}
	slices.Sort(alerts)
	slices.Sort(verdicts)
	if !reflect.DeepEqual(alerts, verdicts) || !slices.ContainsFunc(alerts, func(a string) bool { return strings.HasPrefix(a, "smoke-revoked.com") }) {
		t.Fatalf("stalewatch alerts %q, reference verdicts for still-valid certificates %q", alerts, verdicts)
	}
	resumed := fleettest.Spawn(t, "staleapid-watchstore", "-store", watchDir, "-log", f.Log.URL, "-interval", "100ms")
	if m := resumed.Scrape(); m.Sum("certstore_certs") != float64(len(certs)) || m.Sum("certstore_ingest_resumes_total") != 1 || m.Sum("certstore_ingest_entries_total") != 0 {
		t.Fatalf("staleapid over stalewatch's store: %v certs, %v resumes, %v entries refetched", m.Sum("certstore_certs"),
			m.Sum("certstore_ingest_resumes_total"), m.Sum("certstore_ingest_entries_total"))
	}

	// PUT /v1/loglevel on the running gateway: its outbound transport's
	// per-attempt DEBUG records start landing in its ring.
	debugRecords := func() int {
		var recs []obs.LogRecord
		_, body := fleettest.Get(t, gw.Debug+"/v1/logs?level=debug")
		if err := json.Unmarshal([]byte(body), &recs); err != nil {
			t.Fatalf("/v1/logs: %v: %s", err, body)
		}
		n := 0
		for _, r := range recs {
			if r.Level == "DEBUG" {
				n++
			}
		}
		return n
	}
	gw.Get("/v1/domain/" + domains[0] + "/certs")
	if _, body := fleettest.Get(t, gw.Debug+"/v1/loglevel"); !strings.Contains(body, `"INFO"`) || debugRecords() != 0 {
		t.Fatalf("before the flip: level %s, %d DEBUG records", body, debugRecords())
	}
	req, _ := http.NewRequest(http.MethodPut, gw.Debug+"/v1/loglevel?level=debug", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /v1/loglevel: %v %v", resp, err)
	}

	// -shards a|b,c|d and -hedge-after: every domain answers through the
	// gateway, and a hedge delay below one loopback round trip fires hedges.
	sweep := func(phase string) {
		t.Helper()
		time.Sleep(2 * fleettest.GatewayCacheTTL)
		for _, d := range domains {
			resp, body := gw.Get("/v1/domain/" + d + "/staleness")
			if resp.StatusCode != http.StatusOK || resp.Header.Get(stalegw.MissingShardsHeader) != "" || strings.Contains(body, `"degraded": true`) {
				t.Fatalf("%s: %s = %d, %s=%q: %s", phase, d, resp.StatusCode,
					stalegw.MissingShardsHeader, resp.Header.Get(stalegw.MissingShardsHeader), body)
			}
		}
	}
	sweep("healthy fleet")
	if err := positive(gw, "stalegw_hedged_requests_total"); err != nil {
		t.Fatal(err)
	}
	if debugRecords() == 0 {
		t.Fatal("no DEBUG record in the gateway's ring after PUT /v1/loglevel?level=debug")
	}

	// -targets and -trace-sample 1: obsagg federates the gateway's series
	// under its job and stitches a gateway → replica request trace; stalestat
	// reads a rate of the load driven here off the same surface.
	res, err := loadgen.Run(context.Background(), loadgen.Config{Mode: loadgen.ModeOpen, QPS: 100, Duration: 2 * time.Second,
		Workers: 8, Seed: 1, Ops: []loadgen.Op{{Name: "certs", Weight: 1, Do: func(ctx context.Context) (int64, error) {
			return loadGet(ctx, http.DefaultClient, gw.URL+"/v1/domain/"+domains[0]+"/certs")
		}}}})
	if err != nil || res.Total.Errors > 0 {
		t.Fatalf("load through the gateway: %v, %+v", err, res)
	}
	fleettest.Until(t, func() error {
		var traces []obs.TraceRecord
		_, body := f.Agg.Get("/fleet/traces?limit=2000")
		if err := json.Unmarshal([]byte(body), &traces); err != nil {
			return err
		}
		for _, tr := range traces {
			if slices.Contains(tr.Services, "stalegw") && slices.Contains(tr.Services, "staleapid") {
				return nil
			}
		}
		return errors.New("no fleet trace spans stalegw and staleapid")
	})
	_, federated := f.Agg.Get("/metrics")
	if samples, err := obs.ParseProm(strings.NewReader(federated)); err != nil ||
		fleettest.Metrics(samples).Sum("stalegw_shard_requests_total", `job="stalegw"`) <= 0 {
		t.Fatalf("obsagg /metrics lacks stalegw_shard_requests_total{job=\"stalegw\"} (%v)", err)
	}
	stalestat := func(args ...string) string {
		out, err := exec.Command(fleettest.Bin(t, "stalestat"), append([]string{"-agg", f.Agg.URL}, args...)...).Output()
		if err != nil {
			t.Fatalf("stalestat %v: %v\n%s", args, err, out)
		}
		return string(out)
	}
	var answer struct {
		Status string
		Data   struct{ Result []struct{ Value [2]any } }
	}
	out := stalestat("query", `sum(rate(http_requests_total{job="stalegw"}[15s]))`)
	if err := json.Unmarshal([]byte(out), &answer); err != nil || answer.Status != "success" ||
		len(answer.Data.Result) != 1 || answer.Data.Result[0].Value[1] == "0" {
		t.Fatalf("stalestat query: %v: %s", err, out)
	}
	if out := stalestat("top", "-count", "1", "-plain"); !strings.Contains(out, "stalegw") {
		t.Fatalf("stalestat top lost the gateway row:\n%s", out)
	}

	// Kill a replica: its sibling absorbs the slice, and once a probe round
	// has seen the death the gateway is still fully ready, not degraded.
	f.Replicas[0][0].Kill()
	sweep("after the kill")
	fleettest.Until(t, func() error {
		if gw.Scrape().Sum("stalegw_replica_up", `shard="0"`, `replica="0"`) != 0 {
			return errors.New("no probe round has seen the dead replica")
		}
		return nil
	})
	if resp, body := gw.Get("/readyz"); resp.StatusCode != http.StatusOK || strings.Contains(body, "degraded") || strings.Contains(body, "not-ready") {
		t.Fatalf("gateway /readyz with one replica of a slice dead = %d:\n%s", resp.StatusCode, body)
	}

	// -chaos-seed: ctlogd drops a fifth of its connections and staleapid
	// faults a fifth of its own calls, and the pipeline still converges.
	chaotic := fleettest.StartBinaries(t, fleettest.Spec{Name: "smoke-chaos", Certs: certs[:8], ChaosSeed: 1})
	if resp, body := chaotic.Reference.Get("/v1/domain/" + domains[0] + "/staleness"); resp.StatusCode != http.StatusOK {
		t.Fatalf("staleness under chaos = %d: %s", resp.StatusCode, body)
	}
	if err := positive(chaotic.Reference, "resil_chaos_injections_total"); err != nil {
		t.Fatal(err)
	}

	// The latency burn fired the SLO alert, and the alert left a profile.
	fleettest.Until(t, func() error { return positive(slo, "slo_alert_firing", "latency") })
	var profiles []obs.ProfileEntry
	fleettest.Until(t, func() error {
		_, body := fleettest.Get(t, slo.Debug+"/v1/profiles")
		if err := json.Unmarshal([]byte(body), &profiles); err != nil || len(profiles) == 0 {
			return fmt.Errorf("no triggered profile yet (%v): %s", err, body)
		}
		return nil
	})
	if resp, heap := fleettest.Get(t, slo.Debug+"/v1/profiles/"+profiles[0].ID+"/heap.pprof"); resp.StatusCode != http.StatusOK || heap == "" {
		t.Fatalf("profile %s: heap.pprof = %d, %d bytes", profiles[0].ID, resp.StatusCode, len(heap))
	}
}
