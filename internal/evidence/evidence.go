// Package evidence gathers one domain's staleness evidence from the live
// sources the monitor uses: a WHOIS creation date becomes a registrant-change
// event, a missing provider delegation in DNS becomes a departure on the
// evaluation day, and the in-memory CRL snapshot supplies the revocations
// that can match the domain's certificates. Like the paper's pipelines the
// join is driven from the CT side: a remote source is asked only when the
// domain's certificates leave its answer something to match, and not again
// while its last answer is younger than MaxAge. core.DomainStaleness applies
// the batch pipelines' filters to the result, so live verdicts match theirs.
package evidence

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"stalecert/internal/core"
	"stalecert/internal/crl"
	"stalecert/internal/dnssim"
	"stalecert/internal/monitor"
	"stalecert/internal/resil"
	"stalecert/internal/simtime"
	"stalecert/internal/whois"
	"stalecert/internal/x509sim"
)

// Gatherer collects evidence per domain. A source left at its zero value
// disables that check.
type Gatherer struct {
	// Index lists a domain's certificates: they decide which remote sources
	// are asked, and the snapshot is joined against them.
	Index interface {
		ByE2LD(domain string) []*x509sim.Certificate
	}
	// Whois asks a port-43 server for registry creation dates.
	Whois *whois.Client
	// Resolver queries the authoritative DNS for provider delegation.
	Resolver *dnssim.Resolver
	// CRL is the background-refreshed revocation set.
	CRL *crl.Snapshot
	// Now is the evaluation day a lost delegation is dated to.
	Now simtime.Day
	// MaxAge is how long a WHOIS or DNS answer about an e2LD is reused
	// instead of asking again; zero asks every time. A failed ask is never
	// kept.
	MaxAge time.Duration
	// Clock dates the answers (default: the wall clock).
	Clock resil.Clock

	// mu guards the outcome of the last time each remote source was asked
	// and the answers kept for reuse. Every answer has the same MaxAge, so
	// they expire from the front of kept, in store order; overlapping asks
	// store a little out of fetch order, so use checks an answer's age too.
	mu               sync.Mutex
	whoisErr, dnsErr error
	answers          map[answerKey]*answer
	kept             []*answer
}

// answerKey names one remote source's answer about one e2LD.
type answerKey struct {
	dns    bool
	domain string
}

// answer is a successful reply fetched at at, as the evidence it became: a
// WHOIS answer's re-registration (none on a no-match) or a DNS answer's
// departure (none while delegated).
type answer struct {
	key    answerKey
	at     time.Time
	rereg  []whois.ReRegistration
	depart []dnssim.Departure
}

// Gather is a staleapi.EvidenceFunc. A remote source is asked only when
// core.EvidenceNeeded says its answer can become a verdict for the
// certificates the domain holds: WHOIS when it holds any, DNS when one is
// provider-managed and valid on Now. An answer younger than MaxAge is reused;
// ev.ObservedAt is when the oldest answer used was fetched. When both sources
// are asked, they run concurrently under ctx; the revocation join is a memory
// lookup. Any asked source failing fails the gather: a verdict must not
// silently lack a signal.
func (g *Gatherer) Gather(ctx context.Context, domain string) (core.DomainEvidence, error) {
	ev := core.DomainEvidence{
		RevocationCutoff: simtime.NoDay,
		IsManaged: func(c *x509sim.Certificate) bool {
			return monitor.HasProviderMarker(c, monitor.MarkerSuffix)
		},
	}
	var certs []*x509sim.Certificate
	if g.Whois != nil || g.Resolver != nil || g.CRL != nil {
		certs = g.Index.ByE2LD(domain)
	}
	askWhois, askDNS := core.EvidenceNeeded(certs, ev.IsManaged, g.Now)
	askWhois, askDNS = askWhois && g.Whois != nil, askDNS && g.Resolver != nil
	now := time.Now()
	if g.Clock != nil {
		now = g.Clock.Now()
	}
	if g.MaxAge > 0 && (askWhois || askDNS) {
		askWhois, askDNS = g.recall(now, domain, &ev, askWhois, askDNS)
	}
	if (askWhois || askDNS) && (ev.ObservedAt.IsZero() || now.Before(ev.ObservedAt)) {
		ev.ObservedAt = now
	}

	var wg sync.WaitGroup
	var whoisErr error
	if askWhois && askDNS {
		wg.Add(1)
		go func() {
			defer wg.Done()
			whoisErr = g.whois(ctx, domain, now, &ev)
		}()
	} else if askWhois {
		whoisErr = g.whois(ctx, domain, now, &ev)
	}

	var crlErr error
	if g.CRL != nil {
		var view *crl.View
		if view, crlErr = g.CRL.Current(ctx); crlErr == nil {
			// Two bodies issued under one (issuer, serial) share a key; each
			// revocation entry must still appear once, as in the flat CRL set.
			// Few keys are revoked, so the entries already joined are the set.
			for _, c := range certs {
				key := c.DedupKey()
				entries := view.Lookup(key)
				if len(entries) > 0 && !slices.ContainsFunc(ev.Revocations, func(e crl.Entry) bool { return e.Key() == key }) {
					ev.Revocations = append(ev.Revocations, entries...)
				}
			}
		}
	}

	var dnsErr error
	if askDNS {
		dnsErr = g.dns(ctx, domain, now, &ev)
	}

	wg.Wait()
	for _, err := range []error{whoisErr, crlErr, dnsErr} {
		if err != nil {
			return ev, err
		}
	}
	return ev, nil
}

// recall fills ev from the answers about domain younger than MaxAge, after
// dropping the older ones, and reports which sources must still be asked.
func (g *Gatherer) recall(now time.Time, domain string, ev *core.DomainEvidence, askWhois, askDNS bool) (bool, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for len(g.kept) > 0 && !now.Before(g.kept[0].at.Add(g.MaxAge)) {
		if old := g.kept[0]; g.answers[old.key] == old {
			delete(g.answers, old.key)
		}
		g.kept = g.kept[1:]
	}
	use := func(key answerKey) bool {
		a, ok := g.answers[key]
		if !ok || !now.Before(a.at.Add(g.MaxAge)) {
			return false
		}
		if key.dns {
			ev.Departures = a.depart
		} else {
			ev.ReRegistrations = a.rereg
		}
		if ev.ObservedAt.IsZero() || a.at.Before(ev.ObservedAt) {
			ev.ObservedAt = a.at
		}
		return true
	}
	return askWhois && !use(answerKey{domain: domain}), askDNS && !use(answerKey{dns: true, domain: domain})
}

// keepLocked stores a successful answer for reuse.
func (g *Gatherer) keepLocked(a *answer) {
	if g.answers == nil {
		g.answers = make(map[answerKey]*answer)
	}
	g.answers[a.key] = a
	g.kept = append(g.kept, a)
}

// whois turns the registry's creation date into a registrant-change event.
func (g *Gatherer) whois(ctx context.Context, domain string, at time.Time, ev *core.DomainEvidence) error {
	rec, err := g.Whois.Query(ctx, domain)
	switch {
	case err == nil:
		ev.ReRegistrations = []whois.ReRegistration{{Domain: domain, NewCreation: rec.Created}}
	case errors.Is(err, whois.ErrNoMatch):
		err = nil
	default:
		err = fmt.Errorf("whois %s: %w", domain, err)
	}
	g.mu.Lock()
	g.whoisErr = err
	if err == nil && g.MaxAge > 0 {
		g.keepLocked(&answer{key: answerKey{domain: domain}, at: at, rereg: ev.ReRegistrations})
	}
	g.mu.Unlock()
	return err
}

// dns turns a missing provider delegation into a departure on Now.
func (g *Gatherer) dns(ctx context.Context, domain string, at time.Time, ev *core.DomainEvidence) error {
	delegated, err := monitor.ProviderDelegated(ctx, g.Resolver, domain)
	if err == nil && !delegated {
		ev.Departures = []dnssim.Departure{{Domain: domain, LastSeen: g.Now - 1, FirstGone: g.Now}}
	}
	g.mu.Lock()
	g.dnsErr = err
	if err == nil && g.MaxAge > 0 {
		g.keepLocked(&answer{key: answerKey{dns: true, domain: domain}, at: at, depart: ev.Departures})
	}
	g.mu.Unlock()
	return err
}

// Failing is what the evidence readiness probe reports, nil when nothing is
// wrong: the remote sources whose last ask failed, else the CAs the CRL
// snapshot serves from a last-good list (none without a snapshot). A source
// stays listed until it is next asked and answers: a gather that had no
// reason to ask it says nothing about it.
func (g *Gatherer) Failing() error {
	g.mu.Lock()
	whoisErr, dnsErr := g.whoisErr, g.dnsErr
	g.mu.Unlock()
	switch {
	case whoisErr != nil && dnsErr != nil:
		return fmt.Errorf("%v; %v", whoisErr, dnsErr)
	case whoisErr != nil:
		return whoisErr
	case dnsErr != nil:
		return dnsErr
	case g.CRL != nil:
		return g.CRL.Lagging()
	}
	return nil
}
