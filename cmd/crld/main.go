// Command crld serves certificate revocation lists for a set of CAs over
// HTTP at /crl/{ca}, optionally simulating the scrape protections some
// production distribution points run.
//
// Usage:
//
//	crld [-addr :8785] [-seed-revocations N] [-fail-rate 0.02] [-now 2023-01-01]
//	     [observability flags: obs.BindServingFlags]
//
// The server hosts the reproduction's built-in CA directory; each CA is
// seeded with synthetic revocations across the standard reason codes.
package main

import (
	"context"
	"flag"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"stalecert/internal/ca"
	"stalecert/internal/crl"
	"stalecert/internal/obs"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8785", "listen address")
	seedRevocations := flag.Int("seed-revocations", 100, "synthetic revocations per CA")
	failRate := flag.Float64("fail-rate", 0.02, "per-request scrape-protection failure probability")
	now := flag.String("now", "2023-01-01", "simulated current day (CRL thisUpdate)")
	seed := flag.Int64("seed", 1, "randomness seed")
	obsFlags := obs.BindServingFlags(flag.CommandLine)
	flag.Parse()

	logger, stopDebug := obsFlags.Setup("crld")
	ready := obs.NewReady("CA directory not yet parsed")
	obs.DefaultHealth().Register("ca-directory-parsed", ready.Probe)

	nowDay, err := simtime.Parse(*now)
	if err != nil {
		logger.Error("bad -now", "err", err)
		os.Exit(2)
	}

	srv := crl.NewServer(*seed)
	srv.SetNow(nowDay)
	rng := rand.New(rand.NewSource(*seed))

	reasons := []crl.Reason{
		crl.KeyCompromise, crl.Superseded, crl.CessationOfOperation,
		crl.AffiliationChanged, crl.PrivilegeWithdrawn, crl.Unspecified,
	}
	dir := ca.NewDirectory()
	for _, p := range dir.All() {
		a := crl.NewAuthority(p.Name)
		for i := 0; i < *seedRevocations; i++ {
			a.Revoke(p.ID, x509sim.SerialNumber(i+1),
				nowDay-simtime.Day(rng.Intn(365)), reasons[rng.Intn(len(reasons))])
		}
		srv.Host(a, *failRate)
	}

	ready.OK()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen", "addr", *addr, "err", err)
		os.Exit(1)
	}
	logger.Info("serving CRLs", "cas", len(srv.Names()), "addr", ln.Addr().String(), "fail_rate", *failRate)
	for _, n := range srv.Names() {
		logger.Debug("hosting", "path", "/crl/"+n)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	handler := obs.Middleware(obs.Default(), "crld", srv.Handler())
	httpSrv := &http.Server{Handler: handler}
	if !obs.ServeUntilDone(ctx, logger, httpSrv, ln, stopDebug) {
		os.Exit(1)
	}
}
