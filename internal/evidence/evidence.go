// Package evidence gathers one domain's staleness evidence from the live
// sources the monitor uses: a WHOIS creation date becomes a registrant-change
// event, a missing provider delegation in DNS becomes a departure on the
// evaluation day, and the in-memory CRL snapshot supplies the revocations
// that can match the domain's certificates. Like the paper's pipelines the
// join is driven from the CT side: a remote source is asked only when the
// domain's certificates leave its answer something to match. The result feeds
// core.DomainStaleness, which applies the batch pipelines' filters, so live
// verdicts match the batch pipeline's.
package evidence

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"stalecert/internal/core"
	"stalecert/internal/crl"
	"stalecert/internal/dnssim"
	"stalecert/internal/monitor"
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

	// mu guards the outcome of the last time each remote source was asked.
	mu               sync.Mutex
	whoisErr, dnsErr error
}

// Gather is a staleapi.EvidenceFunc. A remote source is asked only when
// core.EvidenceNeeded says its answer can become a verdict for the
// certificates the domain holds: WHOIS when it holds any, DNS when one is
// provider-managed and valid on Now. When both are, they run concurrently
// under ctx; the revocation join is a memory lookup. Any asked source failing
// fails the gather: a verdict must not silently lack a signal.
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

	var wg sync.WaitGroup
	var whoisErr error
	if askWhois && askDNS {
		wg.Add(1)
		go func() {
			defer wg.Done()
			whoisErr = g.whois(ctx, domain, &ev)
		}()
	} else if askWhois {
		whoisErr = g.whois(ctx, domain, &ev)
	}

	var crlErr error
	if g.CRL != nil {
		var view *crl.View
		if view, crlErr = g.CRL.Current(ctx); crlErr == nil {
			// Two bodies issued under one (issuer, serial) share a key; each
			// revocation entry must still appear once, as in the flat CRL set.
			seen := make(map[x509sim.DedupKey]bool, len(certs))
			for _, c := range certs {
				if key := c.DedupKey(); !seen[key] {
					seen[key] = true
					ev.Revocations = append(ev.Revocations, view.Lookup(key)...)
				}
			}
		}
	}

	var dnsErr error
	if askDNS {
		dnsErr = g.dns(ctx, domain, &ev)
	}

	wg.Wait()
	for _, err := range []error{whoisErr, crlErr, dnsErr} {
		if err != nil {
			return ev, err
		}
	}
	return ev, nil
}

// whois turns the registry's creation date into a registrant-change event.
func (g *Gatherer) whois(ctx context.Context, domain string, ev *core.DomainEvidence) error {
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
	g.mu.Unlock()
	return err
}

// dns turns a missing provider delegation into a departure on Now.
func (g *Gatherer) dns(ctx context.Context, domain string, ev *core.DomainEvidence) error {
	delegated, err := monitor.ProviderDelegated(ctx, g.Resolver, domain)
	if err == nil && !delegated {
		ev.Departures = []dnssim.Departure{{Domain: domain, LastSeen: g.Now - 1, FirstGone: g.Now}}
	}
	g.mu.Lock()
	g.dnsErr = err
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
