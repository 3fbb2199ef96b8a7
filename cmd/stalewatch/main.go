// Command stalewatch is the live stale-certificate monitor: it tails a CT
// log for certificates covering watched domains and cross-checks WHOIS, DNS
// and CRLs to alert on third-party staleness as it appears — the operational
// tool the paper's retrospective pipelines suggest (§8, BygoneSSL).
//
// Usage:
//
//	stalewatch -log http://127.0.0.1:8784 [-whois 127.0.0.1:4343] [-dns 127.0.0.1:5353]
//	           [-crl http://127.0.0.1:8785] [-domains a.com,b.com] [-interval 10s] [-once]
//	           [-jsonl] [-store DIR] [-retry-max 4] [-breaker-threshold 0.5] [-chaos-seed 0]
//	           [-trace-buffer 256] [-trace-sample 0.1] [-trace-slow 250ms]
//	           [-slo availability:99.9,latency:99:250ms] [-profile-dir DIR]
//	           [-latency-buckets 1ms,5ms,...] [-log-buffer 1024]
//
// Point it at cmd/ctlogd, cmd/whoisd, cmd/dnsscand and cmd/crld instances
// (or real deployments of the same protocols). With -jsonl every alert is
// emitted as one JSON line for machine consumption. With -store the watcher
// persists everything it polls into a certstore and resumes from its
// checkpoint on restart — the same store staleapid serves queries from.
//
// CT polls ride the resilience layer: transient log failures are retried
// within the poll round (resil.Retry on top of the instrumented client), and
// when a peer's circuit breaker opens or closes the watcher emits an
// operational alert — as a breaker_open/breaker_closed JSON line under
// -jsonl, as a structured log line otherwise.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"stalecert/internal/ca"
	"stalecert/internal/certstore"
	"stalecert/internal/crl"
	"stalecert/internal/ctlog"
	"stalecert/internal/dnssim"
	"stalecert/internal/monitor"
	"stalecert/internal/obs"
	"stalecert/internal/resil"
	"stalecert/internal/revcheck"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

// breakerLine is the -jsonl wire form of a circuit-breaker transition.
type breakerLine struct {
	Kind string `json:"kind"`
	Peer string `json:"peer"`
	From string `json:"from"`
	To   string `json:"to"`
}

// alertLine is the -jsonl wire form of one alert.
type alertLine struct {
	Kind        string   `json:"kind"`
	Domain      string   `json:"domain"`
	Fingerprint string   `json:"fingerprint"`
	Serial      uint64   `json:"serial"`
	Issuer      uint16   `json:"issuer"`
	Names       []string `json:"names"`
	NotAfter    string   `json:"not_after"`
	Entry       uint64   `json:"entry"`
	Detail      string   `json:"detail"`
}

func main() {
	logURL := flag.String("log", "http://127.0.0.1:8784", "CT log base URL")
	whoisAddr := flag.String("whois", "", "WHOIS server address (empty disables the registrant-change check)")
	dnsAddr := flag.String("dns", "", "authoritative DNS address (empty disables the departure check)")
	crlURL := flag.String("crl", "", "CRL server base URL (empty disables the revocation check)")
	domains := flag.String("domains", "", "comma-separated e2LDs to watch (empty watches everything)")
	interval := flag.Duration("interval", 10*time.Second, "poll interval")
	once := flag.Bool("once", false, "poll once and exit")
	now := flag.String("now", "2023-01-01", "evaluation day")
	marker := flag.String("marker", "cloudflaressl.com", "managed-TLS marker SAN suffix")
	jsonl := flag.Bool("jsonl", false, "emit alerts as JSON lines")
	storeDir := flag.String("store", "", "persist polled entries into a certstore at this directory and resume from its checkpoint")
	obsFlags := obs.BindFlags(flag.CommandLine)
	var rf resil.Flags
	rf.BindFlags(flag.CommandLine)
	flag.Parse()

	logger, stopDebug := obsFlags.Setup("stalewatch")
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		_ = stopDebug(sctx)
	}()

	nowDay, err := simtime.Parse(*now)
	if err != nil {
		logger.Error("bad -now", "err", err)
		os.Exit(2)
	}

	// Breaker transitions are operator-facing events for a monitor: surface
	// them on the alert stream (JSON lines under -jsonl) so a dead upstream
	// is as visible as a stale certificate.
	opts := rf.Options("stalewatch")
	if !opts.NoBreaker {
		opts.Breaker = resil.NewBreakerSet(resil.BreakerConfig{
			Service:   "stalewatch",
			Threshold: rf.BreakerThreshold,
			OnStateChange: func(peer string, from, to resil.State) {
				if *jsonl {
					line, _ := json.Marshal(breakerLine{
						Kind: "breaker_" + to.String(),
						Peer: peer,
						From: from.String(),
						To:   to.String(),
					})
					fmt.Println(string(line))
					return
				}
				logger.Warn("breaker state change", "peer", peer, "from", from.String(), "to", to.String())
			},
		})
	}
	client := ctlog.NewClientWithOptions(*logURL, nil, opts)
	var watch []string
	if *domains != "" {
		watch = strings.Split(*domains, ",")
	}
	var watcher *monitor.CTWatcher
	if *storeDir != "" {
		store, err := certstore.Open(certstore.Options{Dir: *storeDir})
		if err != nil {
			logger.Error("open store", "dir", *storeDir, "err", err)
			os.Exit(1)
		}
		defer store.Close()
		watcher = monitor.NewCTWatcherWithSink(client, certstore.NewIngester(store, client), watch...)
		logger.Info("persisting to store", "dir", *storeDir, "certs", store.Len(), "resume_index", watcher.NextIndex())
	} else {
		watcher = monitor.NewCTWatcher(client, watch...)
	}

	ev := &monitor.Evaluator{Now: nowDay, WhoisAddr: *whoisAddr, MarkerSuffix: *marker}
	if *dnsAddr != "" {
		ev.Resolver = &dnssim.Resolver{ServerAddr: *dnsAddr, Timeout: 2 * time.Second}
		ev.IsProviderRecord = monitor.IsCloudflareRecord
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *crlURL != "" {
		// The first check loads the snapshot; a long-running watcher then
		// refreshes it once per poll interval in the background.
		snap := &crl.Snapshot{
			Fetcher: &crl.Fetcher{Base: *crlURL},
			Names:   ca.NewDirectory().Names(),
			Service: "stalewatch",
		}
		ev.Revocation = crlBackedChecker(snap)
		if !*once {
			go snap.Run(ctx, *interval)
		}
	}
	// Round-level retry on top of the client's per-request resilience: a poll
	// that fails end-to-end (scrape + persist) gets the full backoff ladder
	// before the round is abandoned until the next interval.
	pollPolicy := resil.Policy{
		Service:     "stalewatch-poll",
		MaxAttempts: rf.RetryMax,
		BaseDelay:   250 * time.Millisecond,
		MaxDelay:    5 * time.Second,
	}
	for {
		var hits []monitor.Hit
		err := resil.Retry(ctx, pollPolicy, func(ctx context.Context) error {
			var perr error
			hits, perr = watcher.Poll(ctx)
			return perr
		})
		if err != nil {
			logger.Error("poll failed", "err", err)
		}
		for _, hit := range hits {
			alerts, err := ev.Evaluate(ctx, hit)
			if err != nil {
				logger.Error("evaluate failed", "domains", hit.Domains, "err", err)
				continue
			}
			for _, a := range alerts {
				if *jsonl {
					line, err := json.Marshal(alertLine{
						Kind:        a.Kind.String(),
						Domain:      a.Domain,
						Fingerprint: a.Cert.Fingerprint().Hex(),
						Serial:      uint64(a.Cert.Serial),
						Issuer:      uint16(a.Cert.Issuer),
						Names:       a.Cert.Names,
						NotAfter:    a.Cert.NotAfter.String(),
						Entry:       hit.Entry.Index,
						Detail:      a.Detail,
					})
					if err != nil {
						logger.Error("encode alert", "err", err)
						continue
					}
					fmt.Println(string(line))
					continue
				}
				fmt.Printf("ALERT %-22s %-20s serial=%d issuer=%d: %s\n",
					a.Kind, a.Domain, a.Cert.Serial, a.Cert.Issuer, a.Detail)
			}
			if len(alerts) == 0 && !*jsonl {
				fmt.Printf("ok    entry=%d domains=%v names=%v\n", hit.Entry.Index, hit.Domains, hit.Entry.Cert.Names)
			}
		}
		if *once {
			return
		}
		select {
		case <-ctx.Done():
			logger.Info("shutting down")
			return
		case <-time.After(*interval):
		}
	}
}

// crlBackedChecker answers revocation checks from the in-memory CRL
// snapshot: a map lookup per certificate, with the CA directory fetched once
// per refresh round rather than once per check.
func crlBackedChecker(snap *crl.Snapshot) revcheck.Checker {
	return revcheck.CheckerFunc(func(ctx context.Context, cert *x509sim.Certificate, now simtime.Day) (revcheck.Status, crl.Reason, error) {
		view, err := snap.Current(ctx)
		if err != nil {
			return revcheck.StatusUnavailable, 0, err
		}
		for _, e := range view.Lookup(cert.DedupKey()) {
			if e.RevokedAt <= now {
				return revcheck.StatusRevoked, e.Reason, nil
			}
		}
		return revcheck.StatusGood, 0, nil
	})
}
