package stalecert_test

// Replication acceptance: a 2-slice × 2-replica staleapid fleet behind the
// stalegw gateway must survive the death of one replica with zero visible
// damage — byte-identical, non-degraded answers, no 5xx, no X-Missing-Shards,
// the failover counter advancing — and stay FULLY ready (not merely
// degraded) on the per-slice quorum probe, because the dead replica's
// sibling still covers the slice. A deliberately slowed replica additionally
// exercises the hedged-read path: the gateway races the sibling after the
// hedge delay and the hedge counters advance.

import (
	"context"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"stalecert/internal/fleettest"
	"stalecert/internal/obs"
	"stalecert/internal/shard"
	"stalecert/internal/stalegw"
)

func TestReplicatedFleetSurvivesReplicaDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("replication acceptance is not a -short test")
	}
	// Seeded CT log: 24 plain domains plus a revoked one, behind 2 slices × 2
	// replicas. Both replicas of a slice tail the same log into separate
	// stores under the same SHARD identity — the deployment shape
	// cmd/staleapid documents for replication — and the gateway hedges on the
	// real clock, its breakers shared with replica selection.
	domains, certs, revoked := plainCorpus(t, "replica", "replica-revoked.com", 24)
	f := fleettest.Start(t, fleettest.Spec{Name: "replica-accept", Certs: certs, Revoked: revoked,
		Slices: 2, Replicas: 2, HedgeAfter: 5 * time.Millisecond})
	whole, gw, ctx := f.Reference, f.GW, context.Background()
	ring := shard.MustRing(2, shard.DefaultVNodes)

	gw.ProbeOnce(ctx)
	if err := gw.QuorumProbe(ctx); err != nil {
		t.Fatalf("healthy fleet not ready: %v", err)
	}

	// Fault-free equivalence, recording every body for the post-kill replay:
	// the replicated fleet must already be indistinguishable from the
	// unsharded reference, whichever sibling happens to serve each leg.
	endpoints := []string{"/v1/domains"}
	for _, d := range domains {
		endpoints = append(endpoints,
			"/v1/domain/"+d+"/staleness", "/v1/domain/"+d+"/certs")
	}
	prekill := make(map[string]string, len(endpoints))
	for _, ep := range endpoints {
		wantResp, want := whole.Get(ep)
		gotResp, got := f.Gateway.Get(ep)
		if gotResp.StatusCode != wantResp.StatusCode || got != want {
			t.Fatalf("%s diverges (status %d vs %d):\nunsharded: %s\ngateway:   %s",
				ep, wantResp.StatusCode, gotResp.StatusCode, want, got)
		}
		prekill[ep] = got
	}

	// Hedged reads: stall slice 1's replica 0. Whenever rotation makes it
	// leg 0, the hedge timer fires at 5ms and the sibling answers —
	// byte-identical, and visible on the hedge counters.
	var slice1Domains []string
	for _, d := range domains {
		if ring.Lookup(shard.KeyForDomain(d)) == 1 {
			slice1Domains = append(slice1Domains, d)
		}
	}
	if len(slice1Domains) < 4 {
		t.Fatalf("ring gave slice 1 only %d of %d domains", len(slice1Domains), len(domains))
	}
	hedged := obs.Default().Counter("stalegw_hedged_requests_total", "shard", "1")
	hedgeWins := obs.Default().Counter("stalegw_hedge_wins_total", "shard", "1")
	hedgedBefore, winsBefore := hedged.Value(), hedgeWins.Value()
	time.Sleep(100 * time.Millisecond) // expire the sweep's cached entries: hedged reads must hit replicas
	// Stalled for longer than the gateway waits on any attempt: a read whose
	// leg 0 is this replica can only be answered by the hedge.
	f.Replicas[1][0].Slow(10 * time.Second)
	var rescued uint64
	for _, d := range slice1Domains {
		winsAt := hedgeWins.Value()
		resp, body := f.Gateway.Get("/v1/domain/" + d + "/staleness")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("hedged read %s status = %d: %s", d, resp.StatusCode, body)
		}
		if body != prekill["/v1/domain/"+d+"/staleness"] {
			t.Fatalf("hedged read %s diverges from pre-hedge body:\n%s", d, body)
		}
		rescued += hedgeWins.Value() - winsAt
	}
	f.Replicas[1][0].Slow(0)
	// Rotation makes the stalled replica leg 0 of every other read, and each
	// of those answers are the sibling's: one hedge win per such read.
	if rescued < uint64(len(slice1Domains)/2) {
		t.Fatalf("%d hedge wins over %d reads — hedge did not rescue every read whose first leg stalled",
			rescued, len(slice1Domains))
	}
	if hedged.Value() == hedgedBefore {
		t.Fatal("stalegw_hedged_requests_total{shard=1} did not advance across hedged reads")
	}
	if hedgeWins.Value() == winsBefore {
		t.Fatal("stalegw_hedge_wins_total{shard=1} did not advance — sibling never won")
	}

	// Kill slice 0's replica 0 mid-stream — no re-probe, so the gateway still
	// believes both replicas are healthy and must discover the death the hard
	// way, per query, through failover.
	f.Replicas[0][0].Kill()
	time.Sleep(100 * time.Millisecond) // let every cached gateway entry expire

	failovers := obs.Default().Counter("stalegw_failovers_total", "shard", "0")
	failoversBefore := failovers.Value()
	for _, ep := range endpoints {
		resp, got := f.Gateway.Get(ep)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-kill %s status = %d (want 200, zero 5xx): %s", ep, resp.StatusCode, got)
		}
		if h := resp.Header.Get(stalegw.MissingShardsHeader); h != "" {
			t.Fatalf("post-kill %s carries %s=%q — replica death leaked as slice loss", ep, stalegw.MissingShardsHeader, h)
		}
		if got != prekill[ep] {
			t.Fatalf("post-kill %s not byte-identical to pre-kill:\npre:  %s\npost: %s", ep, prekill[ep], got)
		}
	}
	if failovers.Value() == failoversBefore {
		t.Fatal("stalegw_failovers_total{shard=0} did not advance — dead replica was never leg 0")
	}
	// A failover is visible as one gateway trace holding client spans against
	// both replicas of the killed slice.
	deadPeer := strings.TrimPrefix(f.Replicas[0][0].URL, "http://")
	livePeer := strings.TrimPrefix(f.Replicas[0][1].URL, "http://")
	sawBoth := false
	for _, tr := range f.Gateway.Spans.Traces(obs.TraceFilter{WithSpans: true}) {
		peers := map[string]bool{}
		for _, sp := range tr.Spans {
			peers[sp.Peer] = true
		}
		sawBoth = sawBoth || peers[deadPeer] && peers[livePeer]
	}
	if !sawBoth {
		t.Fatalf("no gateway trace shows the failed leg to %s beside its sibling %s", deadPeer, livePeer)
	}

	// Readiness after the death: the probe round sees the dead replica, but
	// the slice quorum counts slices, not processes — one live sibling keeps
	// the fleet FULLY ready, not merely degraded.
	gw.ProbeOnce(ctx)
	if err := gw.QuorumProbe(ctx); err != nil {
		t.Fatalf("quorum probe after replica death = %v, want fully ready", err)
	}
	resp, body := f.Gateway.Get("/readyz")
	if resp.StatusCode != http.StatusOK || strings.Contains(body, "degraded") || strings.Contains(body, "not-ready") {
		t.Fatalf("post-kill readyz = %d %q, want fully ready", resp.StatusCode, body)
	}
	if v := obs.Default().Gauge("stalegw_replica_up", "shard", "0", "replica", "0").Value(); v != 0 {
		t.Fatalf("stalegw_replica_up{shard=0,replica=0} = %v, want 0 after death", v)
	}
	if v := obs.Default().Gauge("stalegw_replica_up", "shard", "0", "replica", "1").Value(); v != 1 {
		t.Fatalf("stalegw_replica_up{shard=0,replica=1} = %v, want 1", v)
	}
	if v := obs.Default().Gauge("stalegw_shard_up", "shard", strconv.Itoa(0)).Value(); v != 1 {
		t.Fatalf("stalegw_shard_up{shard=0} = %v, want 1 — sibling covers the slice", v)
	}

	// And queries keep flowing without failover noise once the probe round
	// has demoted the dead replica: it is never leg 0 again.
	failoversSettled := failovers.Value()
	for _, d := range domains {
		if ring.Lookup(shard.KeyForDomain(d)) != 0 {
			continue
		}
		resp, _ := f.Gateway.Get("/v1/domain/" + d + "/certs?post=probe")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-probe %s status = %d", d, resp.StatusCode)
		}
	}
	if v := failovers.Value(); v != failoversSettled {
		t.Fatalf("failovers advanced %d→%d after the probe demoted the dead replica", failoversSettled, v)
	}
}
