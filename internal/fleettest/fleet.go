package fleettest

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"stalecert/internal/certstore"
	"stalecert/internal/crl"
	"stalecert/internal/ctlog"
	"stalecert/internal/evidence"
	"stalecert/internal/resil"
	"stalecert/internal/shard"
	"stalecert/internal/simtime"
	"stalecert/internal/staleapi"
	"stalecert/internal/stalegw"
	"stalecert/internal/x509sim"
)

// Day is the evaluation day every fleet runs on.
var Day = simtime.MustParse("2022-06-01")

// GatewayCacheTTL is stalegw's response-cache TTL in every fleet. A test
// that needs the gateway to ask its replicas again sleeps past it.
const GatewayCacheTTL = 60 * time.Millisecond

const caName = "FleetCA" // the one CA an in-process crld hosts Spec.Revoked under

// Spec describes a fleet.
type Spec struct {
	// Name names the log and, at /v1/breakers, the replicas' CT-client breakers
	// ("<Name>") and the gateway's ("<Name>-gw"): fleets in one process stay apart.
	Name string
	// Certs are submitted to ctlogd over add-chain before any replica tails.
	Certs []*x509sim.Certificate
	// Revoked is what crld lists. The crld binary seeds its own directory,
	// so StartBinaries refuses a Spec that sets it.
	Revoked []crl.Entry
	// Slices × Replicas staleapids, each with its own store, serve behind
	// stalegw. Zero slices: the reference replica only, no gateway.
	Slices, Replicas int
	HedgeAfter       time.Duration // stalegw's hedge delay; 0: none
	// ChaosSeed, non-zero, puts fault proxies (Faults.Proxy) sharing one
	// stream of this seed, ~20 % faults, in front of ctlogd and crld: every
	// staleapid tails the log and fetches CRLs through them. Seeding and the
	// gateway reach their members directly.
	ChaosSeed int64
}

// Fleet is a running Spec.
type Fleet struct {
	Log, CRL  *Member
	Reference *Member     // unsharded staleapid holding the whole log
	Replicas  [][]*Member // [slice][replica], named staleapid-<slice>-<replica>
	Gateway   *Member     // stalegw over Replicas; nil without slices
	Agg       *Member     // obsagg over every other member; StartBinaries only

	// GW is the in-process gateway: the probe round cmd/stalegw runs on a
	// timer, Start runs once and a test runs when it chooses.
	GW   *stalegw.Gateway
	spec Spec
	t    testing.TB
	// What the replicas reach Log and CRL through: their URLs, or the
	// fault proxies in front of them.
	logVia, crlVia string
}

// Members lists every daemon of the fleet but obsagg.
func (f *Fleet) Members() []*Member {
	ms := append([]*Member{f.Log, f.CRL, f.Reference}, slices.Concat(f.Replicas...)...)
	if f.Gateway != nil {
		ms = append(ms, f.Gateway)
	}
	return ms
}

// seedAndServe submits the Spec's certificates as any RFC 6962 client would,
// puts the fault proxies up when the Spec asks for them, and starts the
// reference (slice -1) and the replicas, whose URLs it returns.
func (f *Fleet) seedAndServe(start func(name string, slice int) *Member) [][]string {
	client := ctlog.NewClient(f.Log.URL, nil)
	for i, c := range f.spec.Certs {
		if _, err := client.AddChain(context.Background(), c); err != nil {
			f.t.Fatalf("seed cert %d: %v", i, err)
		}
	}
	f.logVia, f.crlVia = f.Log.URL, f.CRL.URL
	if f.spec.ChaosSeed != 0 {
		faults := NewFaults(f.spec.ChaosSeed, DefaultRates(0.2))
		f.logVia, f.crlVia = faults.Proxy(f.t, f.Log.URL), faults.Proxy(f.t, f.CRL.URL)
	}
	f.Reference = start("staleapid", -1)
	groups := make([][]string, f.spec.Slices)
	for s := range groups {
		var group []*Member
		for r := 0; r < f.spec.Replicas; r++ {
			m := start(fmt.Sprintf("staleapid-%d-%d", s, r), s)
			group, groups[s] = append(group, m), append(groups[s], m.URL)
		}
		f.Replicas = append(f.Replicas, group)
	}
	return groups
}

// Start runs the fleet in this process, span stores keeping failed traces
// only, and returns once every replica has tailed the log and loaded its
// CRL snapshot and the gateway's quorum probe passes.
func Start(t testing.TB, spec Spec) *Fleet {
	t.Helper()
	f := &Fleet{spec: spec, t: t}
	logSrv := ctlog.NewServer(ctlog.New(spec.Name+"-log", ctlog.Shard{}))
	logSrv.SetNow(Day)
	f.Log = Serve(t, "ctlogd", 0)
	f.Log.Handle(logSrv.Handler())
	auth := crl.NewAuthority(caName)
	for _, e := range spec.Revoked {
		auth.Revoke(e.Issuer, e.Serial, e.RevokedAt, e.Reason)
	}
	crlSrv := crl.NewServer(7)
	crlSrv.SetNow(Day)
	crlSrv.Host(auth, 0)
	f.CRL = Serve(t, "crld", 0)
	f.CRL.Handle(crlSrv.Handler())
	// A fast-recovering breaker, so an unlucky trip cannot stall a chaos run.
	ingestBreakers := resil.NewBreakerSet(resil.BreakerConfig{Service: spec.Name, Cooldown: 200 * time.Millisecond})
	groups := f.seedAndServe(func(name string, slice int) *Member { return f.startReplica(name, slice, ingestBreakers) })
	if spec.Slices == 0 {
		return f
	}

	// As cmd/stalegw: one breaker set for the client, which trips circuits,
	// and replica selection, which routes around open ones. It trips fast and
	// closes slowly, so a kill stays visible on /v1/breakers.
	f.Gateway = Serve(t, "stalegw", 0)
	breakers := resil.NewBreakerSet(resil.BreakerConfig{Service: spec.Name + "-gw",
		MinRequests: 2, Threshold: 0.5, Cooldown: time.Minute})
	gw, err := stalegw.New(stalegw.Config{
		Map: shard.NewMap(groups),
		Client: resil.NewHTTPClient(resil.Options{Service: "stalegw", Breaker: breakers, Spans: f.Gateway.Spans,
			Policy: resil.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, PerAttempt: 2 * time.Second}}),
		CacheTTL:   GatewayCacheTTL,
		HedgeAfter: spec.HedgeAfter,
		Breakers:   breakers,
		Health:     f.Gateway.Health,
	})
	if err != nil {
		t.Fatalf("build gateway: %v", err)
	}
	f.Gateway.Handle(gw.Handler())
	f.GW = gw
	gw.ProbeOnce(context.Background())
	if err := gw.QuorumProbe(context.Background()); err != nil {
		t.Fatalf("fleet %s not ready: %v", spec.Name, err)
	}
	return f
}

// startReplica runs one staleapid as cmd/staleapid wires it: an ingester
// tailing ctlogd through the resilient client into the replica's own store
// (its ring slice only, when it has one) and an evidence.Gatherer over a
// crl.Snapshot of crld. The daemon re-syncs and refreshes on timers; the log
// and the CRLs here are fixed, so each runs once to what /readyz waits for.
func (f *Fleet) startReplica(name string, slice int, ingestBreakers *resil.BreakerSet) *Member {
	t, ctx := f.t, context.Background()
	opts := certstore.Options{Dir: t.TempDir()}
	if slice >= 0 {
		opts.Slice = &shard.Assignment{Index: slice, Count: f.spec.Slices}
	}
	store, err := certstore.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() }) // runs after the listeners Serve registers have closed
	m := Serve(t, name, 0)
	m.Store = store

	// Tight backoff rides out injected faults, PerAttempt cuts off blackholes.
	ing := certstore.NewIngester(store, ctlog.NewClientWithOptions(f.logVia, nil, resil.Options{
		Service: "staleapid", Breaker: ingestBreakers, Spans: m.Spans,
		Policy: resil.Policy{MaxAttempts: 5, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond, PerAttempt: 500 * time.Millisecond},
	}))
	// One round tails to the head; under chaos it can exhaust its attempts,
	// and the next one resumes from the checkpoint.
	Until(t, func() error { _, err := ing.Sync(ctx); return err })

	snap := &crl.Snapshot{Fetcher: &crl.Fetcher{Base: f.crlVia}, Names: []string{caName}, Service: "staleapid"}
	m.Health.Register("crl-snapshot", snap.Ready)
	Until(t, func() error { return snap.Refresh(ctx) })
	gather := &evidence.Gatherer{Index: store, CRL: snap, Now: Day}
	m.Handle(staleapi.NewServer(staleapi.Config{
		Store:    store,
		Evidence: gather.Gather,
		Now:      func() simtime.Day { return Day },
		CacheTTL: time.Nanosecond, // "cached": false whichever sibling answers
		Health:   m.Health,
	}).Handler())
	return m
}
