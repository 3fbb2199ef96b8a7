// Package cdn models a managed-TLS provider in the Cloudflare mould: it
// takes over a customer domain's traffic via NS or CNAME delegation, obtains
// and fully controls TLS certificates for the domain (§2.3 methods 2–5), and
// — critically for the paper — keeps those keys when the customer leaves.
//
// Certificate strategy follows the measured history (§5.2, Figure 5b):
// "cruise-liner" certificates packing dozens of customers into one SAN list
// (issued through COMODO until mid-2019), then per-customer certificates from
// the provider's own CA. Every managed certificate carries a marker SAN
// (sni<N>.<monitor.MarkerSuffix>) which is how the paper distinguishes
// provider-managed from customer-uploaded certificates.
package cdn

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"stalecert/internal/ca"
	"stalecert/internal/dnsname"
	"stalecert/internal/dnssim"
	"stalecert/internal/monitor"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

// Mode is how a customer delegates traffic to the provider (Figure 3).
type Mode uint8

// Delegation modes.
const (
	ModeNS    Mode = iota // provider becomes the authoritative nameserver
	ModeCNAME             // www CNAME points at the provider edge
)

// Customer is one enrolled domain.
type Customer struct {
	Domain   string
	Mode     Mode
	Enrolled simtime.Day
	Departed simtime.Day // NoDay while active
}

// Active reports whether the customer is still enrolled.
func (c Customer) Active() bool { return c.Departed == simtime.NoDay }

// Config wires a provider.
type Config struct {
	// BoatSize caps customers per cruise-liner certificate (default 50).
	BoatSize int
	// CruiseCA issues cruise-liner certificates (pre-transition).
	CruiseCA *ca.CA
	// PerDomainCA issues per-customer certificates (post-transition).
	PerDomainCA *ca.CA
	// PerDomainFrom is the day the provider switches strategies; before it
	// everything is cruise-liner, from it on per-domain. Zero means
	// per-domain from the start when CruiseCA is nil.
	PerDomainFrom simtime.Day
	// Store is the DNS store delegations are installed into.
	Store *dnssim.Store
}

// The provider's side of a delegation, named under monitor's suffixes: NS
// delegation installs nameServers and points the apex at the anycast edgeIP;
// CNAME delegation points www at an edge name under monitor.EdgeSuffix.
var nameServers = []string{"kiki." + monitor.NSSuffix, "uma." + monitor.NSSuffix}

const (
	edgeIP  = "104.16.0.1"
	account = "cdn:cloudflare" // the provider's CA account identity
)

// Provider is a managed-TLS provider. Safe for concurrent use.
type Provider struct {
	cfg Config

	mu        sync.Mutex
	customers map[string]*Customer
	boats     []*boat
	byDomain  map[string]*boat // active cruise-liner membership
	perDomain map[string][]*x509sim.Certificate
	nextSNI   int
}

// boat is one cruise-liner certificate group sharing a key.
type boat struct {
	id      int
	key     x509sim.KeyID
	marker  string
	members map[string]bool
	certs   []*x509sim.Certificate // every generation issued for this boat
}

// Provider errors.
var (
	ErrEnrolled    = errors.New("cdn: domain already enrolled")
	ErrNotEnrolled = errors.New("cdn: domain not enrolled")
)

// New creates a provider.
func New(cfg Config) *Provider {
	if cfg.BoatSize == 0 {
		cfg.BoatSize = 50
	}
	return &Provider{
		cfg:       cfg,
		customers: make(map[string]*Customer),
		byDomain:  make(map[string]*boat),
		perDomain: make(map[string][]*x509sim.Certificate),
	}
}

// Account is the provider's CA account identity.
func (p *Provider) Account() string { return account }

// Enroll takes a customer domain onto the provider at day: installs the
// delegation into DNS and issues (or re-issues) the managed certificate.
func (p *Provider) Enroll(domain string, mode Mode, day simtime.Day) (*x509sim.Certificate, error) {
	domain = dnsname.Canonical(domain)
	p.mu.Lock()
	if c, ok := p.customers[domain]; ok && c.Active() {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrEnrolled, domain)
	}
	p.customers[domain] = &Customer{Domain: domain, Mode: mode, Enrolled: day, Departed: simtime.NoDay}
	p.mu.Unlock()

	if err := p.installDNS(domain, mode); err != nil {
		return nil, err
	}
	if p.usePerDomain(day) {
		return p.issuePerDomain(domain, day)
	}
	return p.enrollInBoat(domain, day)
}

func (p *Provider) usePerDomain(day simtime.Day) bool {
	if p.cfg.CruiseCA == nil {
		return true
	}
	if p.cfg.PerDomainCA == nil {
		return false
	}
	return day >= p.cfg.PerDomainFrom
}

func (p *Provider) installDNS(domain string, mode Mode) error {
	if p.cfg.Store == nil {
		return nil
	}
	zone := p.findZone(domain)
	if zone == nil {
		return fmt.Errorf("cdn: no zone for %q", domain)
	}
	var err error
	p.cfg.Store.Mutate(func() {
		switch mode {
		case ModeNS:
			zone.Remove(domain, dnssim.TypeNS, "")
			for _, ns := range nameServers {
				if e := zone.Add(dnssim.Record{Name: domain, Type: dnssim.TypeNS, TTL: 86400, Data: ns}); e != nil {
					err = e
					return
				}
			}
			zone.Remove(domain, dnssim.TypeA, "")
			err = zone.Add(dnssim.Record{Name: domain, Type: dnssim.TypeA, TTL: 300, Data: edgeIP})
		case ModeCNAME:
			www := "www." + domain
			zone.Remove(www, dnssim.TypeCNAME, "")
			target := edgeLabel(domain) + "." + monitor.EdgeSuffix
			err = zone.Add(dnssim.Record{Name: www, Type: dnssim.TypeCNAME, TTL: 300, Data: target})
		}
	})
	return err
}

func (p *Provider) removeDNS(domain string, mode Mode) {
	if p.cfg.Store == nil {
		return
	}
	zone := p.findZone(domain)
	if zone == nil {
		return
	}
	p.cfg.Store.Mutate(func() {
		switch mode {
		case ModeNS:
			for _, ns := range nameServers {
				zone.Remove(domain, dnssim.TypeNS, ns)
			}
		case ModeCNAME:
			target := edgeLabel(domain) + "." + monitor.EdgeSuffix
			zone.Remove("www."+domain, dnssim.TypeCNAME, target)
		}
	})
}

func (p *Provider) findZone(domain string) *dnssim.Zone {
	for n := domain; n != ""; n = dnsname.Parent(n) {
		if z := p.cfg.Store.Zone(n); z != nil && z.Apex != domain {
			return z
		}
	}
	return nil
}

// edgeLabel derives a stable provider-side label for a customer domain.
func edgeLabel(domain string) string {
	return strings.ReplaceAll(domain, ".", "-")
}

func (p *Provider) enrollInBoat(domain string, day simtime.Day) (*x509sim.Certificate, error) {
	p.mu.Lock()
	var b *boat
	for _, cand := range p.boats {
		if len(cand.members) < p.cfg.BoatSize {
			b = cand
			break
		}
	}
	if b == nil {
		p.nextSNI++
		b = &boat{
			id:      p.nextSNI,
			marker:  fmt.Sprintf("sni%d.%s", p.nextSNI, monitor.MarkerSuffix),
			members: make(map[string]bool),
		}
		p.boats = append(p.boats, b)
	}
	b.members[domain] = true
	p.byDomain[domain] = b
	p.mu.Unlock()
	return p.reissueBoat(b, day)
}

// reissueBoat issues a fresh cruise-liner certificate for the boat's current
// membership, reusing the boat key (the paper's "hundreds of
// temporally-overlapping certificates differing by a handful of domains").
func (p *Provider) reissueBoat(b *boat, day simtime.Day) (*x509sim.Certificate, error) {
	p.mu.Lock()
	names := make([]string, 0, len(b.members)+1)
	names = append(names, b.marker)
	for d := range b.members {
		names = append(names, d, "*."+d)
	}
	sort.Strings(names)
	key := b.key
	p.mu.Unlock()
	if len(names) == 1 {
		return nil, nil // boat emptied; nothing to issue
	}
	cert, err := p.cfg.CruiseCA.Issue(ca.Request{Account: account, Names: names, Key: key}, day)
	if err != nil {
		return nil, fmt.Errorf("cdn: cruise-liner issue: %w", err)
	}
	p.mu.Lock()
	if b.key == 0 {
		b.key = cert.Key
	}
	b.certs = append(b.certs, cert)
	p.mu.Unlock()
	return cert, nil
}

func (p *Provider) issuePerDomain(domain string, day simtime.Day) (*x509sim.Certificate, error) {
	p.mu.Lock()
	p.nextSNI++
	marker := fmt.Sprintf("sni%d.%s", p.nextSNI, monitor.MarkerSuffix)
	p.mu.Unlock()
	cert, err := p.cfg.PerDomainCA.Issue(ca.Request{
		Account: account,
		Names:   []string{marker, domain, "*." + domain},
	}, day)
	if err != nil {
		return nil, fmt.Errorf("cdn: per-domain issue: %w", err)
	}
	p.mu.Lock()
	p.perDomain[domain] = append(p.perDomain[domain], cert)
	p.mu.Unlock()
	return cert, nil
}

// Renew re-issues the managed certificate(s) covering a domain when they are
// within renewBefore days of expiry. The world simulator calls this on the
// provider's automation cadence.
func (p *Provider) Renew(domain string, day simtime.Day, renewBefore int) error {
	p.mu.Lock()
	c, ok := p.customers[domain]
	if !ok || !c.Active() {
		p.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotEnrolled, domain)
	}
	b := p.byDomain[domain]
	var latest *x509sim.Certificate
	if b != nil && len(b.certs) > 0 {
		latest = b.certs[len(b.certs)-1]
	} else if pd := p.perDomain[domain]; len(pd) > 0 {
		latest = pd[len(pd)-1]
	}
	p.mu.Unlock()
	if latest == nil || int(latest.NotAfter-day) > renewBefore {
		return nil
	}
	if b != nil {
		_, err := p.reissueBoat(b, day)
		return err
	}
	_, err := p.issuePerDomain(domain, day)
	return err
}

// Depart removes the customer at day: delegation records are withdrawn and
// any cruise-liner boat is reissued without the domain. The provider keeps
// every key — including the ones on still-valid certificates naming the
// departed domain, which is precisely the third-party staleness §5.3
// measures.
func (p *Provider) Depart(domain string, day simtime.Day) error {
	domain = dnsname.Canonical(domain)
	p.mu.Lock()
	c, ok := p.customers[domain]
	if !ok || !c.Active() {
		p.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotEnrolled, domain)
	}
	c.Departed = day
	b := p.byDomain[domain]
	if b != nil {
		delete(b.members, domain)
		delete(p.byDomain, domain)
	}
	mode := c.Mode
	p.mu.Unlock()

	p.removeDNS(domain, mode)
	if b != nil && p.cfg.CruiseCA != nil {
		if _, err := p.reissueBoat(b, day); err != nil {
			return err
		}
	}
	return nil
}

// Customer returns the customer record for a domain.
func (p *Provider) Customer(domain string) (Customer, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.customers[dnsname.Canonical(domain)]
	if !ok {
		return Customer{}, false
	}
	return *c, true
}

// Certificates returns every managed certificate the provider has obtained,
// in issuance order per group.
func (p *Provider) Certificates() []*x509sim.Certificate {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*x509sim.Certificate
	for _, b := range p.boats {
		out = append(out, b.certs...)
	}
	domains := make([]string, 0, len(p.perDomain))
	for d := range p.perDomain {
		domains = append(domains, d)
	}
	sort.Strings(domains)
	for _, d := range domains {
		out = append(out, p.perDomain[d]...)
	}
	return out
}
