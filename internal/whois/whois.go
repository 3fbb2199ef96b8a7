// Package whois implements the WHOIS substrate: thin registry records in
// Verisign-style text form, a port-43-flavoured TCP server and client, a
// response parser, and the bulk archive of (domain, registry creation date)
// observations the paper's registrant-change pipeline joins against CT.
//
// Only "thin" fields — the ones controlled by the registry rather than the
// registrar — are modelled, matching the paper's decision to trust only
// those (§4.2).
package whois

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"stalecert/internal/dnsname"
	"stalecert/internal/registry"
	"stalecert/internal/simtime"
)

// Record is a thin WHOIS record: registry-controlled fields only.
type Record struct {
	Domain      string
	Registrar   string
	Created     simtime.Day
	Expires     simtime.Day
	Status      string // EPP-ish status ("ok", "redemptionPeriod", ...)
	NameServers []string
}

// Format renders the record in the key: value layout registries emit.
func (r Record) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Domain Name: %s\n", strings.ToUpper(r.Domain))
	fmt.Fprintf(&b, "Registrar: %s\n", r.Registrar)
	fmt.Fprintf(&b, "Creation Date: %sT00:00:00Z\n", r.Created)
	fmt.Fprintf(&b, "Registry Expiry Date: %sT00:00:00Z\n", r.Expires)
	fmt.Fprintf(&b, "Domain Status: %s\n", r.Status)
	for _, ns := range r.NameServers {
		fmt.Fprintf(&b, "Name Server: %s\n", strings.ToUpper(ns))
	}
	b.WriteString(">>> Last update of whois database <<<\n")
	return b.String()
}

// Parse reads a Format-style response back into a Record. Unknown lines are
// ignored, mirroring how real WHOIS parsers must behave; a missing creation
// date is an error since the pipeline depends on it, and so is a domain or
// name server that is not a DNS name: nothing downstream expects one.
func Parse(text string) (Record, error) {
	var r Record
	haveCreated := false
	for _, line := range strings.Split(text, "\n") {
		key, value, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		key = strings.TrimSpace(key)
		value = strings.TrimSpace(value)
		switch key {
		case "Domain Name":
			r.Domain = dnsname.Canonical(value)
		case "Registrar":
			r.Registrar = value
		case "Creation Date":
			d, err := parseWhoisDate(value)
			if err != nil {
				return Record{}, fmt.Errorf("whois: creation date: %w", err)
			}
			r.Created = d
			haveCreated = true
		case "Registry Expiry Date":
			d, err := parseWhoisDate(value)
			if err != nil {
				return Record{}, fmt.Errorf("whois: expiry date: %w", err)
			}
			r.Expires = d
		case "Domain Status":
			r.Status = value
		case "Name Server":
			ns := dnsname.Canonical(value)
			if err := dnsname.Check(ns, false); err != nil {
				return Record{}, fmt.Errorf("whois: name server %q: %w", ns, err)
			}
			r.NameServers = append(r.NameServers, ns)
		}
	}
	if err := dnsname.Check(r.Domain, false); err != nil { // ErrEmpty: the response named none
		return Record{}, fmt.Errorf("whois: domain name %q: %w", r.Domain, err)
	}
	if !haveCreated {
		return Record{}, fmt.Errorf("whois: no creation date in response")
	}
	return r, nil
}

func parseWhoisDate(s string) (simtime.Day, error) {
	// Accept "2016-01-02T00:00:00Z" and bare "2016-01-02".
	if i := strings.IndexByte(s, 'T'); i >= 0 {
		s = s[:i]
	}
	return simtime.Parse(s)
}

// NotFoundResponse is the body returned for unregistered domains.
const NotFoundResponse = "No match for domain.\n"

// Source supplies WHOIS records; the registry adapter is the usual one.
type Source interface {
	WhoisLookup(domain string) (Record, bool)
}

// RegistrySource adapts a registry.Registry into a WHOIS source.
type RegistrySource struct {
	Registry *registry.Registry
	// NameServers optionally supplies per-domain NS data for the record.
	NameServers func(domain string) []string
}

// WhoisLookup implements Source over the registry's current state.
func (s *RegistrySource) WhoisLookup(domain string) (Record, bool) {
	reg, status, ok := s.Registry.Lookup(domain)
	if !ok {
		return Record{}, false
	}
	r := Record{
		Domain:    reg.Domain,
		Registrar: reg.Registrar,
		Created:   reg.Created,
		Expires:   reg.Expires,
		Status:    eppStatus(status),
	}
	if s.NameServers != nil {
		r.NameServers = s.NameServers(domain)
	}
	return r, true
}

func eppStatus(s registry.Status) string {
	switch s {
	case registry.StatusActive:
		return "ok"
	case registry.StatusGrace:
		return "autoRenewPeriod"
	case registry.StatusRedemption:
		return "redemptionPeriod"
	case registry.StatusPendingDelete:
		return "pendingDelete"
	}
	return "unknown"
}

// Archive is the bulk historical WHOIS dataset: for every domain, the set of
// distinct registry creation dates observed across collection runs. Each
// creation date after the first is a public re-registration — the paper's
// registrant-change signal.
type Archive struct {
	mu sync.RWMutex
	// created[domain] = sorted distinct creation dates
	created map[string][]simtime.Day
	rows    int
}

// NewArchive creates an empty archive.
func NewArchive() *Archive {
	return &Archive{created: make(map[string][]simtime.Day)}
}

// Observe records one WHOIS observation (one row of the bulk dataset).
func (a *Archive) Observe(domain string, created simtime.Day) {
	domain = dnsname.Canonical(domain)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rows++
	dates := a.created[domain]
	i := sort.Search(len(dates), func(i int) bool { return dates[i] >= created })
	if i < len(dates) && dates[i] == created {
		return
	}
	dates = append(dates, 0)
	copy(dates[i+1:], dates[i:])
	dates[i] = created
	a.created[domain] = dates
}

// Rows returns the raw observation count (dataset-size accounting).
func (a *Archive) Rows() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.rows
}

// Domains returns the number of distinct domains observed.
func (a *Archive) Domains() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.created)
}

// CreationDates returns the distinct creation dates seen for a domain,
// ascending.
func (a *Archive) CreationDates(domain string) []simtime.Day {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return append([]simtime.Day(nil), a.created[dnsname.Canonical(domain)]...)
}

// ReRegistration is a detected registrant change: the domain was observed
// with a new registry creation date.
type ReRegistration struct {
	Domain string
	// NewCreation is the creation date of the re-registration.
	NewCreation simtime.Day
	// PrevCreation is the creation date of the prior registration.
	PrevCreation simtime.Day
}

// ReRegistrations lists every re-registration event in the archive, sorted
// by (domain, newCreation). A domain observed with n distinct creation dates
// yields n-1 events.
func (a *Archive) ReRegistrations() []ReRegistration {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var out []ReRegistration
	for domain, dates := range a.created {
		for i := 1; i < len(dates); i++ {
			out = append(out, ReRegistration{Domain: domain, NewCreation: dates[i], PrevCreation: dates[i-1]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Domain != out[j].Domain {
			return out[i].Domain < out[j].Domain
		}
		return out[i].NewCreation < out[j].NewCreation
	})
	return out
}
