// Package monitor implements live stale-certificate watching — the
// operational counterpart of the paper's retrospective pipelines, in the
// spirit of BygoneSSL (§8): tail CT logs for certificates covering watched
// domains, then interrogate WHOIS and DNS to decide whether a valid
// certificate has gone stale under a third party.
//
// Three live checks per certificate:
//
//   - registrant change: the registry creation date postdates the
//     certificate's notBefore — a new owner acquired the domain while the
//     old owner's certificate is still valid;
//   - managed TLS departure: the certificate carries a provider marker SAN
//     but the domain's DNS no longer delegates to the provider;
//   - revocation: the certificate is revoked but unexpired (the key remains
//     usable against clients that don't check).
package monitor

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"stalecert/internal/ctlog"
	"stalecert/internal/dnsname"
	"stalecert/internal/dnssim"
	"stalecert/internal/merkle"
	"stalecert/internal/obs"
	"stalecert/internal/psl"
	"stalecert/internal/revcheck"
	"stalecert/internal/simtime"
	"stalecert/internal/whois"
	"stalecert/internal/x509sim"
)

// Watcher and evaluator metrics: poll cadence, entries tailed, hits on
// watched domains, and alerts raised per kind.
var (
	mPolls       = obs.Default().Counter("monitor_polls_total")
	mPollErrors  = obs.Default().Counter("monitor_poll_errors_total")
	mPollEntries = obs.Default().Counter("monitor_entries_total")
	mPollHits    = obs.Default().Counter("monitor_hits_total")
)

func alertCounter(k AlertKind) *obs.Counter {
	return obs.Default().Counter("monitor_alerts_total", "kind", k.String())
}

// Hit is a CT entry naming a watched domain.
type Hit struct {
	Entry   ctlog.Entry
	Domains []string // watched e2LDs the certificate covers
}

// EntrySink persists entries a watcher polls — in practice a
// certstore.Ingester, which writes them to the durable store and advances
// the persisted checkpoint. Checkpoint seeds the watcher's resume position,
// so a restarted watcher continues from where the previous process stopped
// instead of re-scraping the log; both live (stalewatch, staleapid) and
// batch paths then share the one persistent index the sink maintains.
type EntrySink interface {
	// Checkpoint returns the next entry index to fetch, if one is persisted.
	Checkpoint() (next uint64, ok bool)
	// IngestEntries durably records polled entries and the (already
	// consistency-verified) tree head they were fetched under.
	IngestEntries(entries []ctlog.Entry, sth ctlog.SignedTreeHead) error
}

// CTWatcher incrementally tails one CT log for watched e2LDs, verifying on
// every poll that the new signed tree head is consistent with the previous
// one — a monitor must notice a log rewriting history.
type CTWatcher struct {
	Client *ctlog.Client
	PSL    *psl.List
	// Sink, when set, durably receives every polled entry before hits are
	// returned; a poll whose sink write fails is reported as an error so no
	// entry is observed-but-unpersisted.
	Sink EntrySink

	watched map[string]bool
	next    uint64
	lastSTH ctlog.SignedTreeHead
	haveSTH bool
}

// NewCTWatcher creates a watcher over a log client for the given e2LDs.
// Pass no domains to watch everything.
func NewCTWatcher(client *ctlog.Client, domains ...string) *CTWatcher {
	w := &CTWatcher{Client: client, PSL: psl.Default(), watched: make(map[string]bool)}
	for _, d := range domains {
		w.watched[dnsname.Canonical(d)] = true
	}
	return w
}

// NewCTWatcherWithSink creates a watcher whose polled entries are persisted
// through sink and whose start position resumes from the sink's checkpoint.
func NewCTWatcherWithSink(client *ctlog.Client, sink EntrySink, domains ...string) *CTWatcher {
	w := NewCTWatcher(client, domains...)
	w.Sink = sink
	if next, ok := sink.Checkpoint(); ok {
		w.next = next
	}
	return w
}

// Watch adds a domain.
func (w *CTWatcher) Watch(domain string) {
	w.watched[dnsname.Canonical(domain)] = true
}

// NextIndex returns the resume position.
func (w *CTWatcher) NextIndex() uint64 { return w.next }

// ErrLogInconsistent reports a log whose new STH is not an append-only
// extension of the previous one.
var ErrLogInconsistent = errors.New("monitor: CT log tree heads inconsistent")

// Poll fetches entries added since the last poll and returns hits on
// watched domains. The new STH is checked for append-only consistency with
// the previous poll's head.
func (w *CTWatcher) Poll(ctx context.Context) ([]Hit, error) {
	mPolls.Inc()
	entries, sth, err := w.Client.Scrape(ctx, ctlog.ScrapeOptions{From: w.next})
	if err != nil {
		mPollErrors.Inc()
		return nil, err
	}
	if w.haveSTH && sth.Size >= w.lastSTH.Size {
		proof, err := w.Client.GetConsistency(ctx, w.lastSTH.Size, sth.Size)
		if err != nil {
			return nil, fmt.Errorf("monitor: consistency proof: %w", err)
		}
		if !merkle.VerifyConsistency(w.lastSTH.Size, sth.Size, w.lastSTH.Root, sth.Root, proof) {
			return nil, fmt.Errorf("%w: %d -> %d", ErrLogInconsistent, w.lastSTH.Size, sth.Size)
		}
	} else if w.haveSTH && sth.Size < w.lastSTH.Size {
		return nil, fmt.Errorf("%w: tree shrank %d -> %d", ErrLogInconsistent, w.lastSTH.Size, sth.Size)
	}
	w.lastSTH = sth
	w.haveSTH = true
	if w.Sink != nil && len(entries) > 0 {
		if err := w.Sink.IngestEntries(entries, sth); err != nil {
			mPollErrors.Inc()
			return nil, fmt.Errorf("monitor: persist entries: %w", err)
		}
	}
	mPollEntries.Add(uint64(len(entries)))
	var hits []Hit
	for _, e := range entries {
		if e.Index >= w.next {
			w.next = e.Index + 1
		}
		if domains := w.match(e.Cert); len(domains) > 0 {
			hits = append(hits, Hit{Entry: e, Domains: domains})
		}
	}
	mPollHits.Add(uint64(len(hits)))
	return hits, nil
}

func (w *CTWatcher) match(cert *x509sim.Certificate) []string {
	seen := map[string]bool{}
	var out []string
	for _, n := range cert.Names {
		base := strings.TrimPrefix(n, "*.")
		e2, err := w.PSL.ETLDPlusOne(base)
		if err != nil {
			continue
		}
		if (len(w.watched) == 0 || w.watched[e2]) && !seen[e2] {
			seen[e2] = true
			out = append(out, e2)
		}
	}
	sort.Strings(out)
	return out
}

// AlertKind classifies a staleness alert.
type AlertKind uint8

// Alert kinds.
const (
	AlertRegistrantChange AlertKind = iota
	AlertManagedDeparture
	AlertRevokedValid
)

// String names the kind.
func (k AlertKind) String() string {
	switch k {
	case AlertRegistrantChange:
		return "registrant-change"
	case AlertManagedDeparture:
		return "managed-tls-departure"
	case AlertRevokedValid:
		return "revoked-but-valid"
	}
	return "alert?"
}

// Alert is one detected live staleness condition.
type Alert struct {
	Kind   AlertKind
	Domain string
	Cert   *x509sim.Certificate
	// Detail is a human-readable explanation.
	Detail string
}

// Evaluator runs the live staleness checks against WHOIS, DNS and
// revocation infrastructure. Any nil data source disables its check.
type Evaluator struct {
	// WhoisAddr is a port-43 server for registry creation dates.
	WhoisAddr string
	// Resolver queries the authoritative DNS.
	Resolver *dnssim.Resolver
	// ProviderNS / ProviderCNAME match managed-TLS delegation records;
	// MarkerSuffix identifies provider-managed certificates.
	IsProviderRecord func(dnssim.Record) bool
	MarkerSuffix     string
	// Revocation checks certificate status.
	Revocation revcheck.Checker
	// Now is the evaluation day.
	Now simtime.Day
}

// Evaluate runs every enabled check for one hit.
func (ev *Evaluator) Evaluate(ctx context.Context, hit Hit) ([]Alert, error) {
	var alerts []Alert
	defer func() {
		for _, a := range alerts {
			alertCounter(a.Kind).Inc()
		}
	}()
	cert := hit.Entry.Cert
	if !cert.ValidOn(ev.Now) {
		return nil, nil // expired: no longer a threat
	}
	for _, domain := range hit.Domains {
		if ev.WhoisAddr != "" {
			rec, err := whois.Query(ctx, ev.WhoisAddr, domain)
			switch {
			case err == nil && rec.Created > cert.NotBefore:
				alerts = append(alerts, Alert{
					Kind: AlertRegistrantChange, Domain: domain, Cert: cert,
					Detail: fmt.Sprintf("registry creation %s postdates cert notBefore %s; %d stale days remain",
						rec.Created, cert.NotBefore, int(cert.NotAfter-ev.Now)+1),
				})
			case err != nil && !errors.Is(err, whois.ErrNoMatch):
				return alerts, fmt.Errorf("monitor: whois %s: %w", domain, err)
			}
		}
		if ev.Resolver != nil && ev.IsProviderRecord != nil && ev.MarkerSuffix != "" {
			managed := hasMarker(cert, ev.MarkerSuffix)
			if managed {
				delegated, err := ProviderDelegated(ctx, ev.Resolver, ev.IsProviderRecord, domain)
				if err != nil {
					return alerts, fmt.Errorf("monitor: %w", err)
				}
				if !delegated {
					alerts = append(alerts, Alert{
						Kind: AlertManagedDeparture, Domain: domain, Cert: cert,
						Detail: fmt.Sprintf("provider-managed cert but no provider delegation in DNS; %d stale days remain",
							int(cert.NotAfter-ev.Now)+1),
					})
				}
			}
		}
	}
	if ev.Revocation != nil {
		if st, reason, _ := ev.Revocation.Check(ctx, cert, ev.Now); st == revcheck.StatusRevoked {
			alerts = append(alerts, Alert{
				Kind: AlertRevokedValid, Domain: strings.Join(hit.Domains, ","), Cert: cert,
				Detail: fmt.Sprintf("revoked (%v) but unexpired until %s", reason, cert.NotAfter),
			})
		}
	}
	return alerts, nil
}

func hasMarker(cert *x509sim.Certificate, suffix string) bool {
	return HasProviderMarker(cert, suffix)
}

// HasProviderMarker reports whether the certificate carries a provider
// marker SAN (an sni*.<suffix> name), identifying it as provider-managed.
// Shared by the live evaluator and staleapid's evidence gathering so both
// classify certificates identically.
func HasProviderMarker(cert *x509sim.Certificate, suffix string) bool {
	for _, n := range cert.Names {
		if dnsname.IsSubdomain(n, suffix) && strings.HasPrefix(n, "sni") && n != suffix {
			return true
		}
	}
	return false
}

// IsCloudflareRecord matches the delegation records of the managed-TLS
// provider the daemons watch: an NS under ns.cloudflare.com or a CNAME under
// cdn.cloudflare.com.
func IsCloudflareRecord(r dnssim.Record) bool {
	switch r.Type {
	case dnssim.TypeNS:
		return dnsname.IsSubdomain(r.Data, "ns.cloudflare.com")
	case dnssim.TypeCNAME:
		return dnsname.IsSubdomain(r.Data, "cdn.cloudflare.com")
	}
	return false
}

// ProviderDelegated reports whether the domain's apex NS or www CNAME points
// at the provider. The two questions are asked in turn and the second is
// skipped when the first already answers. Shared by the live evaluator and
// the staleness evidence gatherer so both read delegation identically.
func ProviderDelegated(ctx context.Context, resolver *dnssim.Resolver, isProvider func(dnssim.Record) bool, domain string) (bool, error) {
	for _, q := range []struct {
		name string
		typ  dnssim.RRType
	}{{domain, dnssim.TypeNS}, {"www." + domain, dnssim.TypeCNAME}} {
		recs, err := resolver.Query(ctx, q.name, q.typ)
		if err != nil {
			var nx *dnssim.NXDomainError
			if errors.As(err, &nx) {
				continue
			}
			return false, fmt.Errorf("dns %s %v: %w", q.name, q.typ, err)
		}
		for _, r := range recs {
			if isProvider(r) {
				return true, nil
			}
		}
	}
	return false, nil
}
