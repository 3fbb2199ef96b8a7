// Command stalewatch is the live stale-certificate monitor: it tails a CT
// log into a certificate store and, for every domain a round brought new
// certificates for, prints the staleness verdicts whose certificate is still
// valid — the operational tool the paper's retrospective pipelines suggest
// (§8, BygoneSSL). It runs the pipeline staleapid serves: the one
// certstore.Ingester tails (checkpoint, per-round tree-head consistency,
// interval…32× backoff between failed rounds), evidence.Gatherer asks WHOIS,
// DNS and the CRL snapshot what the domain's certificates make worth asking,
// and core.DomainStaleness decides — so an alert here is exactly a verdict of
// GET /v1/domain/{e2ld}/staleness there, and of the batch pipeline.
//
// Usage:
//
//	stalewatch -log http://127.0.0.1:8784 [-whois 127.0.0.1:4343] [-dns 127.0.0.1:5353]
//	           [-crl http://127.0.0.1:8785] [-domains a.com,b.com] [-interval 10s] [-once]
//	           [-jsonl] [-store DIR] [-retry-max 4]
//	           [-debug-addr ADDR] [-log-format text|json] [-log-level info]
//
// Point it at cmd/ctlogd, cmd/whoisd, cmd/dnsscand and cmd/crld instances
// (or real deployments of the same protocols); a source left unconfigured
// disables its check. With -jsonl every alert is one JSON line. With -store
// the store outlives the process — a restart resumes from its checkpoint,
// and staleapid -store DIR serves the same directory; without it the store
// is a scratch directory removed on exit. -domains restricts which domains
// are evaluated, not what is stored.
//
// When the log's circuit breaker opens or closes the watcher says so on the
// alert stream — a breaker_open/breaker_closed JSON line under -jsonl, a
// structured log line otherwise — so a dead upstream is as visible as a
// stale certificate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"stalecert/internal/ca"
	"stalecert/internal/certstore"
	"stalecert/internal/core"
	"stalecert/internal/crl"
	"stalecert/internal/ctlog"
	"stalecert/internal/dnsname"
	"stalecert/internal/dnssim"
	"stalecert/internal/evidence"
	"stalecert/internal/obs"
	"stalecert/internal/psl"
	"stalecert/internal/resil"
	"stalecert/internal/simtime"
	"stalecert/internal/whois"
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
	EventDay    string   `json:"event_day"`
	Detail      string   `json:"detail"`
}

// alertLines renders one domain's verdicts as alerts: a verdict is an alert
// while its certificate is still valid on now — an expired one is history,
// not a threat. Which verdicts exist is core.DomainStaleness's decision.
func alertLines(domain string, stale []core.StaleCert, now simtime.Day) []alertLine {
	var lines []alertLine
	for _, sc := range stale {
		cert := sc.Cert
		if !cert.ValidOn(now) {
			continue
		}
		line := alertLine{
			Domain:      domain,
			Fingerprint: cert.Fingerprint().Hex(),
			Serial:      uint64(cert.Serial),
			Issuer:      uint16(cert.Issuer),
			Names:       cert.Names,
			NotAfter:    cert.NotAfter.String(),
			EventDay:    sc.EventDay.String(),
		}
		remain := int(cert.NotAfter-now) + 1
		switch sc.Method {
		case core.MethodRegistrantChange:
			line.Kind = "registrant-change"
			line.Detail = fmt.Sprintf("registry creation %s falls inside the validity begun %s; %d stale days remain",
				sc.EventDay, cert.NotBefore, remain)
		case core.MethodManagedTLS:
			line.Kind = "managed-tls-departure"
			line.Detail = fmt.Sprintf("provider-managed cert but no provider delegation in DNS; %d stale days remain", remain)
		default:
			line.Kind = "revoked-but-valid"
			line.Detail = fmt.Sprintf("revoked (%v) on %s but unexpired until %s", sc.Reason, sc.EventDay, cert.NotAfter)
		}
		lines = append(lines, line)
	}
	return lines
}

// roundDomains lists, sorted, the e2LDs the certificates name, restricted to
// watch when it is not empty.
func roundDomains(list *psl.List, certs []*x509sim.Certificate, watch map[string]bool) []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range certs {
		for _, e2 := range core.CertE2LDs(list, c) {
			if (len(watch) == 0 || watch[e2]) && !seen[e2] {
				seen[e2] = true
				out = append(out, e2)
			}
		}
	}
	sort.Strings(out)
	return out
}

func main() { os.Exit(run()) }

func run() int {
	logURL := flag.String("log", "http://127.0.0.1:8784", "CT log base URL")
	whoisAddr := flag.String("whois", "", "WHOIS server address (empty disables the registrant-change check)")
	dnsAddr := flag.String("dns", "", "authoritative DNS address (empty disables the departure check)")
	crlURL := flag.String("crl", "", "CRL server base URL (empty disables the revocation check)")
	domains := flag.String("domains", "", "comma-separated e2LDs to watch (empty watches everything)")
	interval := flag.Duration("interval", 10*time.Second, "poll interval")
	once := flag.Bool("once", false, "poll once and exit")
	now := flag.String("now", "2023-01-01", "evaluation day")
	jsonl := flag.Bool("jsonl", false, "emit alerts as JSON lines")
	storeDir := flag.String("store", "", "keep the certificate store at this directory and resume from its checkpoint (empty: a scratch store)")
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
		return 2
	}
	emit := func(line any) {
		b, err := json.Marshal(line)
		if err != nil {
			logger.Error("encode alert", "err", err)
			return
		}
		fmt.Println(string(b))
	}

	// The log client's breaker set is built here, not by rf.Options, so that
	// its state changes reach the alert stream.
	opts := resil.Options{Service: "stalewatch", Policy: resil.Policy{MaxAttempts: rf.RetryMax},
		Breaker: resil.NewBreakerSet(resil.BreakerConfig{
			Service: "stalewatch",
			OnStateChange: func(peer string, from, to resil.State) {
				if *jsonl {
					emit(breakerLine{Kind: "breaker_" + to.String(), Peer: peer, From: from.String(), To: to.String()})
					return
				}
				logger.Warn("breaker state change", "peer", peer, "from", from.String(), "to", to.String())
			},
		})}
	watch := map[string]bool{}
	for _, d := range strings.Split(*domains, ",") {
		if d != "" {
			watch[dnsname.Canonical(d)] = true
		}
	}

	dir := *storeDir
	if dir == "" {
		if dir, err = os.MkdirTemp("", "stalewatch-"); err != nil {
			logger.Error("scratch store", "err", err)
			return 1
		}
		defer os.RemoveAll(dir)
	}
	store, err := certstore.Open(certstore.Options{Dir: dir})
	if err != nil {
		logger.Error("open store", "dir", dir, "err", err)
		return 1
	}
	defer store.Close()
	cp, _ := store.Checkpoint()
	logger.Info("store opened", "dir", dir, "certs", store.Len(), "resume_index", cp.NextIndex)
	ing := certstore.NewIngester(store, ctlog.NewClientWithOptions(*logURL, nil, opts))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	gather := &evidence.Gatherer{Index: store, Now: nowDay}
	if *whoisAddr != "" {
		gather.Whois = &whois.Client{Addr: *whoisAddr}
	}
	if *dnsAddr != "" {
		gather.Resolver = &dnssim.Resolver{ServerAddr: *dnsAddr, Timeout: 2 * time.Second}
	}
	if *crlURL != "" {
		// The first gather loads the snapshot; a long-running watcher then
		// refreshes it once per poll interval in the background.
		gather.CRL = &crl.Snapshot{
			Fetcher: crl.NewFetcher(*crlURL, &rf),
			Names:   ca.NewDirectory().Names(),
			Service: "stalewatch",
		}
		if !*once {
			go gather.CRL.Run(ctx, *interval)
		}
	}

	// round evaluates the domains named by the certificates the round stored:
	// the two calls staleapi.Server makes for /v1/domain/{e2ld}/staleness. A
	// round that failed part-way still stored, and so still reports, its
	// whole batches.
	round := func(added int, err error) {
		if err != nil && ctx.Err() == nil {
			logger.Error("ingest round failed", "err", err)
		}
		if added == 0 {
			return
		}
		certs := store.Certs()
		for _, domain := range roundDomains(store.PSL(), certs[len(certs)-added:], watch) {
			ev, err := gather.Gather(ctx, domain)
			if err != nil {
				logger.Error("evidence failed", "domain", domain, "err", err)
				continue
			}
			lines := alertLines(domain, core.DomainStaleness(store, domain, ev), nowDay)
			for _, a := range lines {
				if *jsonl {
					emit(a)
					continue
				}
				fmt.Printf("ALERT %-22s %-20s serial=%d issuer=%d: %s\n", a.Kind, a.Domain, a.Serial, a.Issuer, a.Detail)
			}
			if len(lines) == 0 && !*jsonl {
				fmt.Printf("ok    %-20s certs=%d\n", domain, len(store.ByE2LD(domain)))
			}
		}
	}
	if *once {
		added, err := ing.Sync(ctx)
		round(added, err)
		if err != nil {
			return 1
		}
		return 0
	}
	ing.Run(ctx, *interval, round)
	logger.Info("shutting down")
	return 0
}
