// Command dnsscand is the active-DNS half of the pipeline: it can serve an
// authoritative zone over UDP (-serve) and scan a domain list against a DNS
// server (-scan), printing per domain whether it is delegated to the
// managed-TLS provider — managed-tls or self, or the error — by asking
// monitor.ProviderDelegated, the apex NS and www CNAME questions staleapid
// asks.
//
// Usage:
//
//	dnsscand -serve -zonefile com.zone [-addr 127.0.0.1:5353]
//	dnsscand -scan -server 127.0.0.1:5353 -domains example.com,foo.com
//
// Both modes accept obs.BindFlags' -debug-addr, -log-format and -log-level.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"stalecert/internal/dnsname"
	"stalecert/internal/dnssim"
	"stalecert/internal/monitor"
	"stalecert/internal/obs"
)

func main() {
	serve := flag.Bool("serve", false, "serve a zone over UDP")
	zonefile := flag.String("zonefile", "", "zone file to serve (master-file subset)")
	apex := flag.String("apex", "com", "zone apex for -serve")
	addr := flag.String("addr", "127.0.0.1:5353", "UDP listen address for -serve")

	scan := flag.Bool("scan", false, "scan domains against a server")
	server := flag.String("server", "127.0.0.1:5353", "DNS server address for -scan")
	domains := flag.String("domains", "", "comma-separated domain list for -scan")
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()

	logger, stopDebug := obsFlags.Setup("dnsscand")
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = stopDebug(ctx)
	}()

	switch {
	case *serve:
		runServe(logger, *zonefile, *apex, *addr)
	case *scan:
		runScan(logger, *server, *domains)
	default:
		fmt.Fprintln(os.Stderr, "dnsscand: pass -serve or -scan")
		os.Exit(2)
	}
}

func runServe(logger *slog.Logger, zonefile, apex, addr string) {
	ready := obs.NewReady("zone not yet loaded")
	obs.DefaultHealth().Register("zone-loaded", ready.Probe)

	var zone *dnssim.Zone
	if zonefile == "" {
		// Demo zone with one self-hosted and one CDN-delegated domain.
		zone = dnssim.NewZone(apex)
		for _, r := range []dnssim.Record{
			{Name: "self." + apex, Type: dnssim.TypeNS, TTL: 86400, Data: "ns1.hoster.net"},
			{Name: "self." + apex, Type: dnssim.TypeA, TTL: 300, Data: "198.51.100.7"},
			{Name: "cdn." + apex, Type: dnssim.TypeNS, TTL: 86400, Data: "kiki." + monitor.NSSuffix},
			{Name: "www.cdn." + apex, Type: dnssim.TypeCNAME, TTL: 300, Data: "cdn-" + apex + "." + monitor.EdgeSuffix},
		} {
			if err := zone.Add(r); err != nil {
				logger.Error("demo zone", "err", err)
				os.Exit(1)
			}
		}
	} else {
		text, err := os.ReadFile(zonefile)
		if err != nil {
			logger.Error("read zone file", "err", err)
			os.Exit(1)
		}
		zone, err = dnssim.ParseZoneFile(apex, string(text))
		if err != nil {
			logger.Error("parse zone file", "err", err)
			os.Exit(1)
		}
	}

	store := dnssim.NewStore()
	store.AddZone(zone)
	srv := dnssim.NewServer(store)
	bound, err := srv.Start(addr)
	if err != nil {
		logger.Error("listen failed", "addr", addr, "err", err)
		os.Exit(1)
	}
	ready.OK()
	logger.Info("serving zone", "apex", zone.Apex, "records", zone.Len(), "addr", bound.String())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	logger.Info("shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		logger.Error("shutdown", "err", err)
	}
}

func runScan(logger *slog.Logger, server, domainList string) {
	if domainList == "" {
		logger.Error("-scan requires -domains")
		os.Exit(2)
	}
	r := &dnssim.Resolver{ServerAddr: server, Timeout: 2 * time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	failed := false
	for _, d := range strings.Split(domainList, ",") {
		d = dnsname.Canonical(strings.TrimSpace(d))
		tag := "self"
		if delegated, err := monitor.ProviderDelegated(ctx, r, d); err != nil {
			tag, failed = err.Error(), true
		} else if delegated {
			tag = "managed-tls"
		}
		fmt.Printf("%-30s %s\n", d, tag)
	}
	if failed {
		os.Exit(1)
	}
}
