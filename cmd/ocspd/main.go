// Command ocspd serves OCSP-style certificate status over HTTP (POST /ocsp),
// backed by the built-in CA directory with synthetic revocations — the
// online half of the revocation infrastructure that §2.4 shows clients
// bypassing.
//
// Usage:
//
//	ocspd [-addr 127.0.0.1:8786] [-seed-revocations N] [-now 2023-01-01]
//	      [observability flags: obs.BindFlags]
package main

import (
	"context"
	"flag"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"stalecert/internal/ca"
	"stalecert/internal/crl"
	"stalecert/internal/obs"
	"stalecert/internal/revcheck"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8786", "listen address")
	seedRevocations := flag.Int("seed-revocations", 100, "synthetic revocations per CA")
	now := flag.String("now", "2023-01-01", "simulated current day (producedAt)")
	seed := flag.Int64("seed", 1, "randomness seed")
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()

	logger, stopDebug := obsFlags.Setup("ocspd")
	ready := obs.NewReady("responder not yet seeded")
	obs.DefaultHealth().Register("responder-seeded", ready.Probe)

	nowDay, err := simtime.Parse(*now)
	if err != nil {
		logger.Error("bad -now", "err", err)
		os.Exit(2)
	}

	rng := rand.New(rand.NewSource(*seed))
	auths := make(map[x509sim.IssuerID]*crl.Authority)
	reasons := []crl.Reason{crl.KeyCompromise, crl.Superseded, crl.CessationOfOperation, crl.Unspecified}
	for _, p := range ca.NewDirectory().All() {
		a := crl.NewAuthority(p.Name)
		for i := 0; i < *seedRevocations; i++ {
			a.Revoke(p.ID, x509sim.SerialNumber(i+1),
				nowDay-simtime.Day(rng.Intn(365)), reasons[rng.Intn(len(reasons))])
		}
		auths[p.ID] = a
	}

	responder := &revcheck.OCSPResponder{Authorities: auths}
	responder.SetNow(nowDay)
	ready.OK()
	logger.Info("serving OCSP", "cas", len(auths), "addr", *addr, "endpoint", "POST /ocsp")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	handler := obs.Middleware(obs.Default(), "ocspd", responder.Handler())
	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	if !obs.ServeUntilDone(ctx, logger, httpSrv, nil, stopDebug) {
		os.Exit(1)
	}
}
