// Command staleapid serves staleness queries over a persistent certificate
// store. It tails a CT log (cmd/ctlogd or any RFC 6962-style log) into an
// on-disk certstore from a persisted checkpoint — restarts resume instead of
// re-scraping — and answers:
//
//	GET /v1/cert/{fp}                  one certificate by fingerprint
//	                                   (64-hex full or 16-hex short form)
//	GET /v1/domain/{e2ld}/certs        every certificate naming the e2LD
//	GET /v1/domain/{e2ld}/staleness    the three detectors' per-domain
//	                                   verdict against live evidence
//	GET /healthz, /readyz              liveness; readiness = checkpoint
//	                                   loaded AND ingester caught up
//
// Staleness evidence comes from WHOIS (registrant change), authoritative DNS
// (managed-TLS departure) and CRLs (revocation); any source left unconfigured
// disables its check (cmd/stalewatch is this daemon's ingester, gatherer and
// detector run as a tool, so its alerts are these verdicts). A miss asks
// WHOIS when the domain holds certificates and DNS when one of them is
// provider-managed and still valid, the only cases in which the answer can
// become a verdict. -cache-ttl also bounds answer age: an answer younger than
// it is reused for the domain, and a verdict expires a -cache-ttl after its
// oldest answer was fetched. The whole CA directory's CRLs are a memory
// snapshot refreshed in the background every -cache-ttl, so revocation
// evidence is at most one refresh older than the cache entry it backs.
// /readyz stays unready until the first complete load.
//
// Usage:
//
//	staleapid -store /var/lib/stalecert [-addr :8786] [-log http://127.0.0.1:8784]
//	          [-interval 5s] [-lag-threshold 0] [-whois 127.0.0.1:4343]
//	          [-dns 127.0.0.1:5353] [-crl http://127.0.0.1:8785]
//	          [-now 2023-01-01] [-cache-entries 1024] [-cache-ttl 5s]
//	          [-retry-max 4] [observability flags: obs.BindServingFlags]
//	          [-shard i/N]
//
// With -shard i/N the replica is one slice of a consistent-hash fleet: it
// still tails the whole log (every page checked for index contiguity, every
// round's tree head for consistency with the last; entries are not hashed) but
// persists only the e2LDs its ring slice owns, pins that slice into the
// store, and reports it at /v1/shardmap for the gateway (cmd/stalegw) to
// validate. The ring's epoch, vnodes and hash are constants of the build
// (internal/shard): a store pinned to another slice, or by a build with
// another ring, makes staleapid exit at startup; re-ingest it into a fresh
// -store.
//
// Replicating a slice needs no extra wiring: start several staleapids with
// the same -shard i/N (separate -store dirs), and each independently tails
// the same log and pins an identical SHARD file — interchangeable replicas
// the gateway lists as one "|"-joined replica group in its -shards flag and
// fails over or hedges between.
//
// Every outbound call (CT log tail, CRL fetches) goes through the resilience
// layer: -retry-max bounds attempts, and per-peer circuit breakers open at
// a 0.5 failure fraction (visible on the debug listener at /v1/breakers).
// When live evidence fails but a last-good verdict is cached, the staleness
// endpoint serves it with "degraded": true and an X-Stale-Evidence header
// instead of a 502, and /readyz reports 200-degraded rather than 503.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"stalecert/internal/ca"
	"stalecert/internal/certstore"
	"stalecert/internal/crl"
	"stalecert/internal/ctlog"
	"stalecert/internal/dnssim"
	"stalecert/internal/evidence"
	"stalecert/internal/obs"
	"stalecert/internal/resil"
	"stalecert/internal/shard"
	"stalecert/internal/simtime"
	"stalecert/internal/staleapi"
	"stalecert/internal/whois"
	"stalecert/internal/x509sim"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8786", "API listen address")
	storeDir := flag.String("store", "", "certificate store directory (required)")
	logURL := flag.String("log", "http://127.0.0.1:8784", "CT log base URL to tail")
	interval := flag.Duration("interval", 5*time.Second, "ingest sync interval")
	lagThreshold := flag.Uint64("lag-threshold", 0, "max entries behind the log head to count as ready")
	whoisAddr := flag.String("whois", "", "WHOIS server for registrant-change evidence (empty disables)")
	dnsAddr := flag.String("dns", "", "authoritative DNS for departure evidence (empty disables)")
	crlURL := flag.String("crl", "", "CRL server base URL for revocation evidence (empty disables)")
	now := flag.String("now", "2023-01-01", "evaluation day")
	cacheEntries := flag.Int("cache-entries", 1024, "staleness cache capacity")
	cacheTTL := flag.Duration("cache-ttl", 5*time.Second, "staleness cache TTL, and how long a WHOIS or DNS answer is reused")
	shardFlag := flag.String("shard", "", "ring slice this replica ingests and serves, as i/N (empty = whole keyspace)")
	obsFlags := obs.BindServingFlags(flag.CommandLine)
	var rf resil.Flags
	rf.BindFlags(flag.CommandLine)
	flag.Parse()

	logger, stopDebug := obsFlags.Setup("staleapid")
	if *storeDir == "" {
		logger.Error("missing required -store directory")
		os.Exit(2)
	}
	nowDay, err := simtime.Parse(*now)
	if err != nil {
		logger.Error("bad -now", "err", err)
		os.Exit(2)
	}
	// The ingester still tails the whole log, its checkpoint advancing over
	// every entry, but persists only this replica's ring slice; Open pins the
	// slice into the store, so a restart under a different -shard refuses to
	// mix.
	var slice *shard.Assignment
	if *shardFlag != "" {
		a, err := shard.ParseAssignment(*shardFlag)
		if err != nil {
			logger.Error("bad -shard", "err", err)
			os.Exit(2)
		}
		slice = &a
	}

	// Readiness: the store (and its checkpoint, if any) must be loaded, and
	// the ingester must have synced to within -lag-threshold of the log
	// head. Served on both the API listener and the debug listener.
	cpReady := obs.NewReady("store not opened")
	caughtUp := obs.NewReady("ingester has not completed a sync")
	obs.DefaultHealth().Register("store-checkpoint", cpReady.Probe)
	obs.DefaultHealth().Register("ingest-caught-up", caughtUp.Probe)

	store, err := certstore.Open(certstore.Options{Dir: *storeDir, Slice: slice})
	if err != nil {
		logger.Error("open store", "dir", *storeDir, "err", err)
		os.Exit(1)
	}
	defer store.Close()
	cpReady.OK()
	if cp, ok := store.Checkpoint(); ok {
		logger.Info("store opened", "dir", *storeDir, "certs", store.Len(),
			"segments", store.SegmentCount(), "resume_index", cp.NextIndex)
	} else {
		logger.Info("store opened (fresh)", "dir", *storeDir, "certs", store.Len(),
			"segments", store.SegmentCount())
	}

	// The ingest client is named after the daemon, not the peer: its call and
	// attempt spans then carry service="staleapid" in stitched fleet traces,
	// so a cross-daemon trace reads staleapid → ctlogd.
	ing := certstore.NewIngester(store, ctlog.NewClientWithOptions(*logURL, nil, rf.Options("staleapid")))
	if slice != nil {
		logger.Info("sharded ingest", "shard", slice.String(), "epoch", shard.Epoch, "vnodes", shard.DefaultVNodes)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Evidence sources; any left unconfigured disables its check. Revocations
	// come from a snapshot of the whole CA directory refreshed every
	// -cache-ttl in the background — CRL fetches run under the flags' retry
	// budget — never inside a request.
	gather := &evidence.Gatherer{Index: store, Now: nowDay, MaxAge: *cacheTTL}
	if *whoisAddr != "" {
		gather.Whois = &whois.Client{Addr: *whoisAddr}
	}
	if *dnsAddr != "" {
		gather.Resolver = &dnssim.Resolver{ServerAddr: *dnsAddr, Timeout: 2 * time.Second}
	}
	if *crlURL != "" {
		gather.CRL = &crl.Snapshot{Fetcher: crl.NewFetcher(*crlURL, &rf), Names: ca.NewDirectory().Names(), Service: "staleapid"}
		obs.DefaultHealth().Register("crl-snapshot", gather.CRL.Ready)
		go gather.CRL.Run(ctx, *cacheTTL)
	}
	srv := staleapi.NewServer(staleapi.Config{
		Store:        store,
		Evidence:     gather.Gather,
		Now:          func() simtime.Day { return nowDay },
		CacheEntries: *cacheEntries,
		CacheTTL:     *cacheTTL,
	})
	// Evidence failures — a remote source that failed the last time it was
	// asked (a domain it cannot matter to does not ask it, so only its own
	// next answer clears it), or a CA whose CRL refresh failed and is served
	// from its last-good list — degrade readiness (200 with a degraded body)
	// rather than flipping the daemon unready: queries still answer from
	// last-good. The gatherer is the one record of them.
	obs.DefaultHealth().Register("evidence", func(context.Context) error { return obs.Degraded(gather.Failing()) })

	go ing.Run(ctx, *interval, func(stored []*x509sim.Certificate, err error) {
		switch {
		case err != nil:
			logger.Error("ingest sync failed", "err", err)
			caughtUp.Fail(fmt.Errorf("last sync failed: %w", err))
		case ing.Lag() > *lagThreshold:
			caughtUp.Fail(fmt.Errorf("ingest lag %d entries exceeds threshold %d", ing.Lag(), *lagThreshold))
		default:
			if len(stored) > 0 {
				logger.Info("ingested", "added", len(stored), "total", store.Len())
			}
			caughtUp.OK()
		}
	})

	handler := obs.Middleware(obs.Default(), "staleapid", srv.Handler())
	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	logger.Info("serving staleness API", "addr", *addr, "log", *logURL)
	if !obs.ServeUntilDone(ctx, logger, httpSrv, nil, stopDebug) {
		os.Exit(1)
	}
}
