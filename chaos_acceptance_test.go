package stalecert_test

// Chaos acceptance: the full seeded pipeline — a CT log served over HTTP,
// tailed into a fresh on-disk certstore through the resilient client, a CRL
// distribution point feeding revocation evidence through the resilient
// fetcher, and a staleapi server answering per-domain staleness queries —
// must produce byte-identical verdicts with 20% deterministic fault
// injection on every outbound call as it does fault-free, with the retries
// that made that possible visible in the resil metric families.

import (
	"encoding/json"
	"net/http"
	"testing"

	"stalecert/internal/fleettest"
	"stalecert/internal/obs"
	"stalecert/internal/resil"
	"stalecert/internal/staleapi"
)

// chaosQueryDomains are the staleness endpoints compared across runs: plain
// sites, the revoked domain, and one with no certificates at all.
var chaosQueryDomains = []string{
	"site01.com", "site07.com", "site12.com", "revoked.com", "nocerts.example",
}

// runChaosPipeline builds the whole pipeline from scratch (fresh log, fresh
// store) and returns the fleet and each queried domain's staleness response
// body. A zero seed runs fault-free; any other injects that seeded fault
// stream into both the CT tail and the CRL fetch legs. The replica's span
// store receives the CT leg's call and per-attempt client spans.
func runChaosPipeline(t *testing.T, chaosSeed int64) (*fleettest.Fleet, map[string]string) {
	t.Helper()
	// 16 plain sites and revoked.com, whose certificate the CRL lists as a
	// key compromise.
	_, certs, revoked := plainCorpus(t, "site", "revoked.com", 16)
	f := fleettest.Start(t, fleettest.Spec{Name: "chaos-accept", Certs: certs, Revoked: revoked, ChaosSeed: chaosSeed})

	out := make(map[string]string, len(chaosQueryDomains))
	for _, d := range chaosQueryDomains {
		resp, body := f.Reference.Get("/v1/domain/" + d + "/staleness")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("staleness %s: status %d: %s", d, resp.StatusCode, body)
		}
		out[d] = body
	}
	return f, out
}

// metricTotal sums every labelled series of one counter family.
func metricTotal(family string) float64 {
	var total float64
	for _, s := range obs.Default().Snapshot() {
		if s.Name == family {
			total += s.Value
		}
	}
	return total
}

func TestChaosPipelineVerdictsMatchFaultFree(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos acceptance is not a -short test")
	}

	_, clean := runChaosPipeline(t, 0)

	retriesBefore := metricTotal("resil_retries_total")
	injectedBefore := metricTotal("resil_chaos_injections_total")

	// The fleet's span stores run at sample rate 0: only the tail-sampling
	// error rule can keep a trace, so everything the replica retained below
	// was fault-touched. The seed is chosen so the deterministic fault stream
	// hits the CT leg, whose spans land in the replica's store, not just the
	// CRL fetcher's.
	f, chaotic := runChaosPipeline(t, 18)
	spans := f.Reference.Spans

	if len(chaotic) != len(clean) {
		t.Fatalf("chaos run answered %d domains, fault-free %d", len(chaotic), len(clean))
	}
	for _, d := range chaosQueryDomains {
		if chaotic[d] != clean[d] {
			t.Errorf("verdict for %s drifted under chaos:\nfault-free: %s\nchaos:      %s", d, clean[d], chaotic[d])
		}
	}

	// The identical verdicts must have been earned: faults were injected and
	// retries absorbed them.
	if injected := metricTotal("resil_chaos_injections_total") - injectedBefore; injected == 0 {
		t.Error("chaos run injected no faults")
	}
	if retries := metricTotal("resil_retries_total") - retriesBefore; retries == 0 {
		t.Error("chaos run performed no retries — faults were not absorbed by the resilience layer")
	}

	// Injected-fault traces must be tail-kept: at sample rate 0 every kept
	// trace was retained by the error rule, triggered by a failed attempt or
	// an exhausted call.
	kept := spans.Traces(obs.TraceFilter{WithSpans: true})
	if len(kept) == 0 {
		t.Fatal("chaos run kept no traces at sample=0 — injected faults did not trip tail sampling")
	}
	for _, tr := range kept {
		if tr.KeepReason != obs.KeepError {
			t.Fatalf("trace %s kept for %q, want %q at sample=0", tr.TraceID, tr.KeepReason, obs.KeepError)
		}
	}

	// At least one kept trace must show the retry anatomy: a call span that
	// needed several attempts, with each attempt visible as a numbered
	// sibling client span beneath it and the first of them failed.
	retried := false
	for _, tr := range kept {
		for _, root := range obs.BuildSpanTree(tr.Spans) {
			if root.Kind != obs.SpanCall || root.Attempt < 2 || len(root.Children) < 2 {
				continue
			}
			ok := true
			for i, att := range root.Children {
				if att.Kind != obs.SpanClient || att.Attempt != i+1 {
					ok = false
				}
			}
			first := root.Children[0]
			if ok && (first.Err != "" || first.Status >= 500) {
				retried = true
			}
		}
	}
	if !retried {
		t.Error("no kept trace shows a retried call with numbered per-attempt client spans under it")
	}

	// Breaker state must be observable on the debug surface: the registered
	// sets (including this fleet's) show up on /v1/breakers via the obs mux.
	resp, breakersBody := fleettest.Get(t, f.Reference.Debug+"/v1/breakers")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/breakers status %d", resp.StatusCode)
	}
	var statuses []resil.BreakerStatus
	if err := json.Unmarshal([]byte(breakersBody), &statuses); err != nil {
		t.Fatalf("/v1/breakers is not JSON: %v\n%s", err, breakersBody)
	}
	found := false
	for _, st := range statuses {
		if st.Service == "chaos-accept" {
			found = true
		}
	}
	if !found {
		t.Errorf("chaos-accept breaker missing from /v1/breakers: %s", breakersBody)
	}

	// A verdict sanity check so byte-equality is not vacuous: the revoked
	// domain reports its key-compromise staleness in both runs.
	var sr staleapi.StalenessResponse
	if err := json.Unmarshal([]byte(chaotic["revoked.com"]), &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Stale) != 1 || sr.Stale[0].Reason != "keyCompromise" || sr.Stale[0].StalenessDays <= 0 {
		t.Fatalf("revoked.com verdict = %+v", sr)
	}
}
