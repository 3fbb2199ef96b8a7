// Command stalegw is the stateless query gateway in front of a sharded
// staleapid fleet. It keeps no certificate state: a consistent-hash shard
// map (-shards, in ring-index order) tells it which replica group owns
// which e2LD slice, and it routes:
//
//	GET /v1/domain/{e2ld}/certs        → the owning slice
//	GET /v1/domain/{e2ld}/staleness    → the owning slice
//	GET /v1/cert/{fp}                  → scatter-gather, the hit wins
//	GET /v1/domains[?prefix=&limit=]   → scatter-merge of every slice
//	GET /v1/shardmap                   → the gateway's topology document
//	GET /healthz, /readyz              liveness; readiness = slice quorum
//
// Each -shards element is one slice's replica group: one base URL, or
// several separated by "|" (e.g. http://a:9001|http://b:9001). All replicas
// of a slice must run staleapid with the same -shard i/N assignment (they
// pin identical SHARD files and tail the same log). The ring's epoch, vnodes
// and hash are constants of the build (internal/shard), so the gateway and
// its replicas agree on them by being built from one tree. Per call the gateway
// dials a healthy replica (probe + breaker state, rotated), fails over to
// siblings on error, and with -hedge-after > 0 races a sibling when the
// first replica is slow — first response wins, the loser is cancelled.
//
// Every fan-out leg rides the resilience layer (per-replica circuit
// breakers on /v1/breakers, -retry-max retries, traced attempts). A dead
// slice — every replica down — degrades instead of failing: owner-routed
// queries fall back to the last-good cached response ("degraded": true,
// X-Stale-Evidence) for up to ten minutes, scatter queries return partial
// results with X-Missing-Shards, and /readyz reports degraded while at least
// -quorum slices answer. stalegw_cache_entries gauges the response cache.
//
// Usage:
//
//	stalegw -shards 'http://a:9001|http://b:9001,http://a:9002|http://b:9002'
//	        [-addr :8787] [-quorum 0 (majority)]
//	        [-probe-interval 2s] [-cache-entries 4096] [-cache-ttl 5s]
//	        [-hedge-after 30ms] [-retry-max 4]
//	        [observability flags: obs.BindServingFlags]
package main

import (
	"context"
	"flag"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"stalecert/internal/obs"
	"stalecert/internal/resil"
	"stalecert/internal/shard"
	"stalecert/internal/stalegw"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8787", "API listen address")
	shardList := flag.String("shards", "", "comma-separated slices in ring-index order, each one base URL or |-separated replica URLs (required)")
	quorum := flag.Int("quorum", 0, "min live shards for (degraded) readiness; 0 = majority")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "shard liveness probe interval")
	cacheEntries := flag.Int("cache-entries", 4096, "last-good response cache capacity")
	cacheTTL := flag.Duration("cache-ttl", 5*time.Second, "last-good response cache TTL")
	hedgeAfter := flag.Duration("hedge-after", 0, "race a sibling replica after this long without a response (0 disables hedging)")
	obsFlags := obs.BindServingFlags(flag.CommandLine)
	var rf resil.Flags
	rf.BindFlags(flag.CommandLine)
	flag.Parse()

	logger, stopDebug := obsFlags.Setup("stalegw")
	if *shardList == "" {
		logger.Error("missing required -shards list")
		os.Exit(2)
	}
	var groups [][]string
	for _, slice := range strings.Split(*shardList, ",") {
		if slice = strings.TrimSpace(slice); slice == "" {
			continue
		}
		var group []string
		for _, a := range strings.Split(slice, "|") {
			if a = strings.TrimSpace(a); a != "" {
				group = append(group, a)
			}
		}
		groups = append(groups, group)
	}

	// One breaker set shared between the resilient client (which trips
	// circuits) and the gateway (which routes around open ones).
	opts := rf.Options("stalegw")
	gw, err := stalegw.New(stalegw.Config{
		Map:          shard.NewMap(groups),
		Client:       resil.NewHTTPClient(opts),
		Quorum:       *quorum,
		CacheEntries: *cacheEntries,
		CacheTTL:     *cacheTTL,
		HedgeAfter:   *hedgeAfter,
		Breakers:     opts.Breaker,
	})
	if err != nil {
		logger.Error("build gateway", "err", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go gw.RunProbes(ctx, *probeInterval)

	handler := obs.Middleware(obs.Default(), "stalegw", gw.Handler())
	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	replicas := 0
	for _, g := range groups {
		replicas += len(g)
	}
	logger.Info("serving query gateway", "addr", *addr, "slices", len(groups), "replicas", replicas, "epoch", shard.Epoch)
	if !obs.ServeUntilDone(ctx, logger, httpSrv, nil, stopDebug) {
		os.Exit(1)
	}
}
