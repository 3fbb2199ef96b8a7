// Command whoisd serves thin WHOIS records over TCP in the port-43 style,
// backed by a simulated registry: one query per connection, or "-k " queries
// on a kept one (RIPE's persistent mode). A query client is built in (-query).
//
// Usage:
//
//	whoisd [-addr 127.0.0.1:4343] [-seed-domains N] [observability flags: obs.BindFlags]
//	whoisd -query example000001.com [-server 127.0.0.1:4343]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"stalecert/internal/obs"
	"stalecert/internal/registry"
	"stalecert/internal/simtime"
	"stalecert/internal/whois"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:4343", "TCP listen address")
	seedDomains := flag.Int("seed-domains", 100, "synthetic registrations to seed")
	query := flag.String("query", "", "query a domain against -server instead of serving")
	server := flag.String("server", "127.0.0.1:4343", "server address for -query")
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()

	logger, stopDebug := obsFlags.Setup("whoisd")

	if *query != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		rec, err := whois.Query(ctx, *server, *query)
		if err != nil {
			logger.Error("query failed", "domain", *query, "err", err)
			os.Exit(1)
		}
		fmt.Print(rec.Format())
		return
	}

	ready := obs.NewReady("registry not yet seeded")
	obs.DefaultHealth().Register("registry-seeded", ready.Probe)

	reg := registry.New("com", "net")
	base := simtime.MustParse("2021-01-01")
	for i := 0; i < *seedDomains; i++ {
		name := fmt.Sprintf("example%06d.com", i+1)
		if _, err := reg.Register(name, fmt.Sprintf("registrant-%d", i+1), "GoDaddy",
			base+simtime.Day(i%365), 1); err != nil {
			logger.Error("seed registration failed", "domain", name, "err", err)
			os.Exit(1)
		}
	}
	reg.Tick(base + 400)

	srv := whois.NewServer(&whois.RegistrySource{Registry: reg})
	bound, err := srv.Start(*addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	ready.OK()
	logger.Info("serving WHOIS", "domains", *seedDomains, "addr", bound.String())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	logger.Info("shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		logger.Error("shutdown", "err", err)
	}
	_ = stopDebug(sctx)
}
