// Command ctlogd serves an RFC 6962-style Certificate Transparency log over
// HTTP: add-chain, get-sth, get-entries, get-proof-by-hash and
// get-sth-consistency under /ct/v1/.
//
// Usage:
//
//	ctlogd [-addr :8784] [-name mylog] [-shard-start 2022-01-01 -shard-end 2023-01-01]
//	       [-seed-entries N] [-seed-domains 1]
//	       [observability flags: obs.BindFlags] [resilience flags: resil.Flags.BindFlags]
//
// A non-zero -chaos-seed wraps the listener in resil.NewChaosListener, which
// drops a deterministic fraction of accepted connections — server-side fault
// injection for exercising client reconnect paths in acceptance tests.
//
// With -seed-entries the log is pre-populated with synthetic certificates so
// ctscan has something to fetch.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"stalecert/internal/ctlog"
	"stalecert/internal/obs"
	"stalecert/internal/resil"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8784", "listen address")
	name := flag.String("name", "stalecert-log", "log name")
	shardStart := flag.String("shard-start", "", "shard start date (YYYY-MM-DD); empty = unsharded")
	shardEnd := flag.String("shard-end", "", "shard end date (YYYY-MM-DD, exclusive)")
	seedEntries := flag.Int("seed-entries", 0, "pre-populate with N synthetic certificates")
	seedDomains := flag.Int("seed-domains", 1, "spread seeded certificates across N distinct e2LDs (1 = all under example.com)")
	now := flag.String("now", "2023-01-01", "simulated current day for SCT timestamps")
	obsFlags := obs.BindFlags(flag.CommandLine)
	var rf resil.Flags
	rf.BindFlags(flag.CommandLine)
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

	for i := 0; i < *seedEntries; i++ {
		// One e2LD by default (the historical seed%06d.example.com shape);
		// -seed-domains > 1 spreads SANs across distinct registrable domains
		// so Zipf-distributed load (internal/loadgen) has a population to skew.
		name := fmt.Sprintf("seed%06d.example.com", i)
		if *seedDomains > 1 {
			name = fmt.Sprintf("seed%06d.example-%03d.com", i, i%*seedDomains)
		}
		cert, err := x509sim.New(
			x509sim.SerialNumber(i+1), 1, x509sim.KeyID(i+1),
			[]string{name},
			nowDay-30, nowDay+60,
		)
		if err != nil {
			logger.Error("seed cert", "err", err)
			os.Exit(1)
		}
		if _, err := l.AddChain(cert, nowDay-simtime.Day(i%30)); err != nil {
			logger.Error("seed add-chain", "err", err)
			os.Exit(1)
		}
	}

	sth := l.STH()
	ready.OK()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen", "addr", *addr, "err", err)
		os.Exit(1)
	}
	if rf.ChaosSeed != 0 {
		logger.Warn("chaos listener active", "seed", rf.ChaosSeed, "drop_rate", 0.2)
		ln = resil.NewChaosListener(ln, rf.ChaosSeed, 0.2)
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
