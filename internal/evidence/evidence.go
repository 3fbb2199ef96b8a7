// Package evidence gathers one domain's staleness evidence from the live
// sources the monitor uses: a WHOIS creation date becomes a registrant-change
// event, a missing provider delegation in DNS becomes a departure on the
// evaluation day, and the in-memory CRL snapshot supplies the revocations
// that can match the domain's certificates. The result feeds
// core.DomainStaleness, which applies the batch pipelines' filters, so live
// verdicts match staled's.
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
	// Index lists a domain's certificates, to join against the snapshot.
	Index interface {
		ByE2LD(domain string) []*x509sim.Certificate
	}
	// WhoisAddr is a port-43 server for registry creation dates.
	WhoisAddr string
	// Resolver queries the authoritative DNS for provider delegation.
	Resolver *dnssim.Resolver
	// CRL is the background-refreshed revocation set.
	CRL *crl.Snapshot
	// Marker is the SAN suffix identifying provider-managed certificates.
	Marker string
	// Now is the evaluation day a lost delegation is dated to.
	Now simtime.Day
}

// Gather is a staleapi.EvidenceFunc. WHOIS and the DNS delegation check run
// concurrently under ctx; the revocation join is a memory lookup. Any source
// failing fails the gather: a verdict must not silently lack a signal.
func (g *Gatherer) Gather(ctx context.Context, domain string) (core.DomainEvidence, error) {
	ev := core.DomainEvidence{
		RevocationCutoff: simtime.NoDay,
		IsManaged: func(c *x509sim.Certificate) bool {
			return monitor.HasProviderMarker(c, g.Marker)
		},
	}

	var wg sync.WaitGroup
	var whoisErr error
	if g.WhoisAddr != "" {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec, err := whois.Query(ctx, g.WhoisAddr, domain)
			switch {
			case err == nil:
				ev.ReRegistrations = []whois.ReRegistration{{Domain: domain, NewCreation: rec.Created}}
			case !errors.Is(err, whois.ErrNoMatch):
				whoisErr = fmt.Errorf("whois %s: %w", domain, err)
			}
		}()
	}

	var crlErr error
	if g.CRL != nil {
		var view *crl.View
		if view, crlErr = g.CRL.Current(ctx); crlErr == nil {
			// Two bodies issued under one (issuer, serial) share a key; each
			// revocation entry must still appear once, as in the flat CRL set.
			certs := g.Index.ByE2LD(domain)
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
	if g.Resolver != nil {
		var delegated bool
		delegated, dnsErr = monitor.ProviderDelegated(ctx, g.Resolver, monitor.IsCloudflareRecord, domain)
		if dnsErr == nil && !delegated {
			ev.Departures = []dnssim.Departure{{Domain: domain, LastSeen: g.Now - 1, FirstGone: g.Now}}
		}
	}

	wg.Wait()
	for _, err := range []error{whoisErr, crlErr, dnsErr} {
		if err != nil {
			return ev, err
		}
	}
	return ev, nil
}
