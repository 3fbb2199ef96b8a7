package stalecert_test

// Sharding acceptance: a 3-shard staleapid fleet behind the stalegw gateway
// must be indistinguishable from one unsharded staleapid — byte-identical
// staleness verdicts, certificate lookups (both fingerprint spellings) and
// domain listings over the whole seeded corpus. Then one shard dies: the
// gateway degrades instead of failing — last-good verdicts marked degraded
// with X-Missing-Shards and X-Stale-Evidence, partial domain listings, a
// degraded (not unready) quorum probe, and the dead shard's circuit breaker
// visibly open on /v1/breakers.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"stalecert/internal/certstore"
	"stalecert/internal/crl"
	"stalecert/internal/fleettest"
	"stalecert/internal/obs"
	"stalecert/internal/resil"
	"stalecert/internal/shard"
	"stalecert/internal/simtime"
	"stalecert/internal/stalegw"
	"stalecert/internal/x509sim"
)

// plainCorpus is n two-name certificates, one per "<prefix>NN.com", plus one
// key-compromise-revoked certificate for revokedDomain.
func plainCorpus(t *testing.T, prefix, revokedDomain string, n uint64) (domains []string, certs []*x509sim.Certificate, revoked []crl.Entry) {
	t.Helper()
	addCert := func(serial uint64, names []string) {
		c, err := x509sim.New(x509sim.SerialNumber(serial), 1, x509sim.KeyID(serial), names, 100, 1200)
		if err != nil {
			t.Fatal(err)
		}
		certs = append(certs, c)
	}
	for i := uint64(0); i < n; i++ {
		d := fmt.Sprintf("%s%02d.com", prefix, i)
		domains = append(domains, d)
		addCert(i+1, []string{d, "www." + d})
	}
	domains = append(domains, revokedDomain)
	addCert(100, []string{revokedDomain})
	return domains, certs, []crl.Entry{{Issuer: 1, Serial: 100, RevokedAt: 600, Reason: crl.KeyCompromise}}
}

func TestShardedFleetMatchesUnshardedVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("sharding acceptance is not a -short test")
	}
	const shardCount = 3

	// Seeded CT log: 24 plain domains plus a revoked one. The reference is one
	// unsharded replica holding the whole log; the fleet is three replicas
	// tailing the same log, each keeping only its ring slice, behind a gateway
	// whose fast-tripping, slow-closing breaker makes the kill below visible
	// on /v1/breakers.
	domains, certs, revoked := plainCorpus(t, "accept", "revoked.com", 24)
	f := fleettest.Start(t, fleettest.Spec{Name: "shard-accept", Certs: certs, Revoked: revoked,
		Slices: shardCount, Replicas: 1})
	whole, gw, ctx := f.Reference, f.GW, context.Background()
	ring := shard.MustRing(shardCount, shard.DefaultVNodes)
	if whole.Store.Len() != len(certs) {
		t.Fatalf("unsharded store holds %d certs, want %d", whole.Store.Len(), len(certs))
	}
	stores := make([]*certstore.Store, shardCount)
	fleetTotal := 0
	for i, group := range f.Replicas {
		st := group[0].Store
		if st.Len() == 0 {
			t.Fatalf("shard %d ingested nothing", i)
		}
		fleetTotal += st.Len()
		stores[i] = st
	}
	if fleetTotal != len(certs) {
		t.Fatalf("fleet slices sum to %d certs, want %d (overlap or loss)", fleetTotal, len(certs))
	}

	gw.ProbeOnce(ctx)
	if err := gw.QuorumProbe(ctx); err != nil {
		t.Fatalf("healthy fleet not ready: %v", err)
	}

	// Fault-free equivalence: every domain's staleness verdict and cert
	// listing, several certificates under both fingerprint spellings, and
	// the merged domain listing must be byte-identical to the unsharded
	// reference.
	for _, d := range append(domains, "nocerts.example") {
		for _, ep := range []string{"/v1/domain/" + d + "/staleness", "/v1/domain/" + d + "/certs"} {
			wantResp, want := whole.Get(ep)
			gotResp, got := f.Gateway.Get(ep)
			if gotResp.StatusCode != wantResp.StatusCode || got != want {
				t.Fatalf("%s diverges (status %d vs %d):\nunsharded: %s\ngateway:   %s",
					ep, wantResp.StatusCode, gotResp.StatusCode, want, got)
			}
		}
	}
	for _, c := range []*x509sim.Certificate{certs[0], certs[11], certs[len(certs)-1]} {
		fp := c.Fingerprint()
		for _, form := range []string{fp.Hex(), fp.String()} {
			_, want := whole.Get("/v1/cert/" + form)
			_, got := f.Gateway.Get("/v1/cert/" + form)
			if got != want {
				t.Fatalf("cert %s diverges:\nunsharded: %s\ngateway:   %s", form, want, got)
			}
		}
	}
	_, wantList := whole.Get("/v1/domains")
	_, gotList := f.Gateway.Get("/v1/domains")
	if gotList != wantList {
		t.Fatalf("domain listing diverges:\nunsharded: %s\ngateway:   %s", wantList, gotList)
	}

	// Kill one shard — the one owning accept00.com, whose verdict the
	// gateway has cached above.
	deadDomain := "accept00.com"
	dead := ring.Lookup(shard.KeyForDomain(deadDomain))
	deadHost := strings.TrimPrefix(f.Replicas[dead][0].URL, "http://")
	f.Replicas[dead][0].Kill()
	time.Sleep(120 * time.Millisecond) // let the cached verdict expire

	// Owner-routed query for the dead shard's domain: 200 from last-good,
	// marked degraded, naming the missing shard.
	resp, body := f.Gateway.Get("/v1/domain/" + deadDomain + "/staleness")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-kill staleness status = %d: %s", resp.StatusCode, body)
	}
	var verdict map[string]any
	if err := json.Unmarshal([]byte(body), &verdict); err != nil {
		t.Fatal(err)
	}
	if verdict["degraded"] != true {
		t.Fatalf("post-kill verdict not marked degraded: %s", body)
	}
	if got := resp.Header.Get(stalegw.MissingShardsHeader); got != strconv.Itoa(dead) {
		t.Fatalf("%s = %q, want %d", stalegw.MissingShardsHeader, got, dead)
	}
	if resp.Header.Get(obs.StaleEvidenceHeader) == "" {
		t.Fatal("post-kill verdict missing X-Stale-Evidence")
	}

	// Scatter-merge with a dead shard: partial results, marked.
	resp, body = f.Gateway.Get("/v1/domains")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-kill domains status = %d", resp.StatusCode)
	}
	var listing stalegw.DomainsResponse
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatal(err)
	}
	if !listing.Degraded || len(listing.MissingShards) != 1 || listing.MissingShards[0] != dead {
		t.Fatalf("post-kill listing = %+v, want degraded with missing shard %d", listing, dead)
	}
	if listing.Total != len(domains)-stores[dead].Len() {
		t.Fatalf("post-kill listing total = %d, want %d live domains", listing.Total, len(domains)-stores[dead].Len())
	}

	// A cert on a live shard still resolves through the fan-out.
	liveCert := certs[0]
	if ring.Lookup(shard.KeyForDomain("accept00.com")) == dead {
		for i, c := range certs[:24] {
			if ring.Lookup(shard.KeyForDomain(fmt.Sprintf("accept%02d.com", i))) != dead {
				liveCert = c
				break
			}
		}
	}
	resp, body = f.Gateway.Get("/v1/cert/" + liveCert.Fingerprint().Hex())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-kill live-shard cert status = %d: %s", resp.StatusCode, body)
	}

	// Readiness degrades (2/3 up ≥ majority quorum) without going unready.
	gw.ProbeOnce(ctx)
	if err := gw.QuorumProbe(ctx); err == nil || !obs.IsDegraded(err) {
		t.Fatalf("post-kill quorum probe = %v, want degraded", err)
	}

	// Enough failed legs must hit the dead shard to outweigh the successful
	// equivalence-phase calls in its breaker window and trip the circuit:
	// the breaker is then open on the /v1/breakers debug surface.
	for i := 0; i < 20; i++ {
		f.Gateway.Get("/v1/domain/" + deadDomain + "/staleness")
	}
	_, body = fleettest.Get(t, f.Gateway.Debug+"/v1/breakers")
	var statuses []resil.BreakerStatus
	if err := json.Unmarshal([]byte(body), &statuses); err != nil {
		t.Fatal(err)
	}
	open := false
	for _, s := range statuses {
		if s.Service == "shard-accept-gw" && s.Peer == deadHost && s.State == "open" {
			open = true
		}
	}
	if !open {
		t.Fatalf("dead shard %s breaker not open on /v1/breakers: %s", deadHost, body)
	}
}

// randomCorpus is a seeded log: 30 domains of one to four certificates under
// three issuers, a quarter of them revoked inside or before their validity,
// a fifth re-issued under the same (issuer, serial), which the CRL join
// cannot tell apart. No certificate names two registrable domains: one that
// does lives on two slices, and the gateway's /v1/domains then counts its
// domains twice in "total" (ROADMAP item 3).
func randomCorpus(t *testing.T, seed int64) (domains []string, certs []*x509sim.Certificate, revoked []crl.Entry) {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	serial := x509sim.SerialNumber(0)
	for d := 0; d < 30; d++ {
		domain := fmt.Sprintf("sweep%d-%02d.com", seed, d)
		domains = append(domains, domain)
		for n := 1 + rnd.Intn(4); n > 0; n-- {
			serial++
			issuer := x509sim.IssuerID(1 + rnd.Intn(3))
			nb := fleettest.Day - simtime.Day(30+rnd.Intn(370))
			bodies := [][]string{{domain, "www." + domain}, {domain, "www." + domain, "twin." + domain}}
			for _, names := range bodies[:1+rnd.Intn(5)/4] {
				c, err := x509sim.New(serial, issuer, x509sim.KeyID(serial), names, nb, nb+398)
				if err != nil {
					t.Fatal(err)
				}
				certs = append(certs, c)
			}
			if rnd.Intn(4) == 0 {
				revoked = append(revoked, crl.Entry{Issuer: issuer, Serial: serial,
					RevokedAt: nb - 20 + simtime.Day(rnd.Intn(200)), Reason: crl.Reason(rnd.Intn(6))})
			}
		}
	}
	return domains, certs, revoked
}

// TestFleetMatchesReferenceOverRandomCorpora is the differential property
// behind the fixed scenario above: over seeded random corpora and every
// topology the gateway fronts, each answer is the unsharded replica's, byte
// for byte.
func TestFleetMatchesReferenceOverRandomCorpora(t *testing.T) {
	if testing.Short() {
		t.Skip("sharding acceptance is not a -short test")
	}
	for seed := int64(1); seed <= 3; seed++ {
		domains, certs, revoked := randomCorpus(t, seed)
		paths := []string{"/v1/domains", "/v1/domain/nocerts.example/staleness"}
		for _, d := range domains {
			paths = append(paths, "/v1/domain/"+d+"/staleness")
		}
		for _, c := range certs {
			paths = append(paths, "/v1/cert/"+c.Fingerprint().Hex(), "/v1/cert/"+c.Fingerprint().String())
		}
		for _, topo := range [][2]int{{1, 1}, {3, 1}, {2, 2}} {
			t.Run(fmt.Sprintf("seed%d/%dx%d", seed, topo[0], topo[1]), func(t *testing.T) {
				f := fleettest.Start(t, fleettest.Spec{Name: "sweep", Certs: certs, Revoked: revoked,
					Slices: topo[0], Replicas: topo[1], HedgeAfter: 5 * time.Millisecond})
				stale := 0
				sweep := func(pass string) {
					for _, p := range paths {
						wantResp, want := f.Reference.Get(p)
						gotResp, got := f.Gateway.Get(p)
						if gotResp.StatusCode != wantResp.StatusCode || got != want {
							t.Fatalf("%s, %s pass, diverges (status %d vs %d):\nunsharded: %s\ngateway:   %s",
								p, pass, wantResp.StatusCode, gotResp.StatusCode, want, got)
						}
						if strings.Contains(want, `"staleness_days"`) {
							stale++
						}
					}
				}
				sweep("cold")
				if stale == 0 {
					t.Fatal("no verdict reported a stale certificate: the equality is vacuous")
				}
				// Past the TTL every answer is retained but none is fresh: each
				// fingerprint goes to the slice that answered it, and to no other.
				unhinted := func() uint64 {
					return obs.Default().Counter("stalegw_cert_lookups_total", "via", "scatter").Value() +
						obs.Default().Counter("stalegw_cert_lookups_total", "via", "fallback").Value()
				}
				hinted := obs.Default().Counter("stalegw_cert_lookups_total", "via", "hint")
				time.Sleep(2 * fleettest.GatewayCacheTTL)
				unhintedBefore, hintedBefore := unhinted(), hinted.Value()
				sweep("hinted")
				if unhinted() != unhintedBefore || hinted.Value() == hintedBefore {
					t.Fatalf("second pass: %d lookups by hint, %d without one; want every lookup hinted",
						hinted.Value()-hintedBefore, unhinted()-unhintedBefore)
				}
			})
		}
	}
}
