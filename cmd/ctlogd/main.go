// Command ctlogd serves an RFC 6962-style Certificate Transparency log over
// HTTP: add-chain, get-sth, get-entries, get-proof-by-hash and
// get-sth-consistency under /ct/v1/.
//
// Usage:
//
//	ctlogd [-addr :8784] [-name mylog] [-shard-start 2022-01-01 -shard-end 2023-01-01]
//	       [-seed-entries N] [-seed-domains 1]
//	       [observability flags: obs.BindServingFlags]
//
// With -seed-entries the log is pre-populated with synthetic certificates
// (ctlog.Bulk), minted and hashed on every core and appended in index order
// with no SCTs, so a tailing staleapid or stalewatch has something to fetch.
package main

import (
	"context"
	"flag"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"stalecert/internal/ctlog"
	"stalecert/internal/obs"
	"stalecert/internal/simtime"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8784", "listen address")
	name := flag.String("name", "stalecert-log", "log name")
	shardStart := flag.String("shard-start", "", "shard start date (YYYY-MM-DD); empty = unsharded")
	shardEnd := flag.String("shard-end", "", "shard end date (YYYY-MM-DD, exclusive)")
	seedEntries := flag.Int("seed-entries", 0, "pre-populate with N synthetic certificates")
	seedDomains := flag.Int("seed-domains", 1, "spread seeded certificates across N distinct e2LDs (1 = all under example.com)")
	now := flag.String("now", "2023-01-01", "simulated current day for SCT timestamps")
	obsFlags := obs.BindServingFlags(flag.CommandLine)
	flag.Parse()

	logger, stopDebug := obsFlags.Setup("ctlogd")
	ready := obs.NewReady("ct tree not yet seeded")
	obs.DefaultHealth().Register("ct-tree-loaded", ready.Probe)

	var shard ctlog.Shard
	if *shardStart != "" || *shardEnd != "" {
		s, err := simtime.Parse(*shardStart)
		if err != nil {
			logger.Error("bad -shard-start", "err", err)
			os.Exit(2)
		}
		e, err := simtime.Parse(*shardEnd)
		if err != nil {
			logger.Error("bad -shard-end", "err", err)
			os.Exit(2)
		}
		shard = ctlog.Shard{Start: s, End: e}
	}
	nowDay, err := simtime.Parse(*now)
	if err != nil {
		logger.Error("bad -now", "err", err)
		os.Exit(2)
	}

	l := ctlog.New(*name, shard)
	srv := ctlog.NewServer(l)
	srv.SetNow(nowDay)

	if err := l.AddBatch(*seedEntries, ctlog.Bulk(*seedDomains, nowDay)); err != nil {
		logger.Error("seed", "err", err)
		os.Exit(1)
	}

	sth := l.STH()
	ready.OK()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen", "addr", *addr, "err", err)
		os.Exit(1)
	}
	logger.Info("serving CT log", "name", l.Name(), "shard", l.Shard().String(),
		"size", sth.Size, "addr", ln.Addr().String())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	handler := obs.Middleware(obs.Default(), "ctlogd", srv.Handler())
	httpSrv := &http.Server{Handler: handler}
	if !obs.ServeUntilDone(ctx, logger, httpSrv, ln, stopDebug) {
		os.Exit(1)
	}
}
