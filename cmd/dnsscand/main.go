// Command dnsscand is the active-DNS half of the pipeline: it can serve an
// authoritative zone over UDP (-serve) and scan a domain list against a DNS
// server (-scan), printing each domain's A/AAAA/NS/CNAME records and whether
// it is delegated to a Cloudflare-style managed-TLS provider.
//
// Usage:
//
//	dnsscand -serve -zonefile com.zone [-addr 127.0.0.1:5353]
//	dnsscand -scan -server 127.0.0.1:5353 -domains example.com,foo.com
//
// Both modes accept the observability flags obs.BindFlags registers.
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
			{Name: "cdn." + apex, Type: dnssim.TypeNS, TTL: 86400, Data: "kiki.ns.cloudflare.com"},
			{Name: "www.cdn." + apex, Type: dnssim.TypeCNAME, TTL: 300, Data: "cdn-" + apex + ".cdn.cloudflare.com"},
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
	var list []string
	for _, d := range strings.Split(domainList, ",") {
		list = append(list, dnsname.Canonical(strings.TrimSpace(d)))
	}

	r := &dnssim.Resolver{ServerAddr: server, Timeout: 2 * time.Second}
	ws := &dnssim.WireScanner{Resolver: r}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	snap, err := ws.Scan(ctx, 0, list)
	if err != nil {
		logger.Error("scan failed", "err", err)
		os.Exit(1)
	}

	isCF := func(rec dnssim.Record) bool {
		switch rec.Type {
		case dnssim.TypeNS:
			return dnsname.IsSubdomain(rec.Data, "ns.cloudflare.com")
		case dnssim.TypeCNAME:
			return dnsname.IsSubdomain(rec.Data, "cdn.cloudflare.com")
		}
		return false
	}
	for _, d := range list {
		if !snap.Scanned(d) {
			fmt.Printf("%-30s UNREACHABLE\n", d)
			continue
		}
		tag := "self"
		if snap.Matches(d, isCF) {
			tag = "managed-tls"
		}
		fmt.Printf("%-30s %-12s %d records\n", d, tag, len(snap.Records(d)))
		for _, rec := range snap.Records(d) {
			fmt.Printf("    %s\n", rec)
		}
	}
	counts := snap.CountByType()
	fmt.Printf("totals: A=%d AAAA=%d NS=%d CNAME=%d\n",
		counts[dnssim.TypeA], counts[dnssim.TypeAAAA], counts[dnssim.TypeNS], counts[dnssim.TypeCNAME])
}
