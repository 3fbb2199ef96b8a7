// Package registry implements the gTLD domain-registration lifecycle behind
// the paper's registrant-change analysis: registration, renewal,
// expiration through the 45-day grace and 30-day redemption periods, pending
// delete, and public re-registration (drop-catch) — which is the only
// registrant change that surfaces as a new registry creation date.
package registry

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"sync"

	"stalecert/internal/dnsname"
	"stalecert/internal/simtime"
)

// Lifecycle windows (Verisign-style gTLD policy, in days).
const (
	GraceDays         = 45 // registrar auto-renew grace after expiry
	RedemptionDays    = 30 // redemption period after grace
	PendingDeleteDays = 5  // pending delete before release
)

// Status is the lifecycle state of a domain name.
type Status uint8

// Lifecycle states.
const (
	StatusAvailable Status = iota // not registered (or released)
	StatusActive
	StatusGrace      // expired, within the registrar grace window
	StatusRedemption // recoverable only by the prior registrant
	StatusPendingDelete
)

var statusNames = [...]string{"available", "active", "grace", "redemption", "pendingDelete"}

// String names the status.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Registration is one continuous registration of a domain by (a chain of)
// registrants. The registry creation date only changes when the domain is
// deleted and re-registered.
type Registration struct {
	Domain     string
	Registrant string // opaque registrant identity
	Registrar  string
	Created    simtime.Day // registry creation date
	Expires    simtime.Day
}

// Errors returned by Registry operations.
var (
	ErrTaken        = errors.New("registry: domain not available")
	ErrNotFound     = errors.New("registry: domain not registered")
	ErrBadDomain    = errors.New("registry: malformed domain")
	ErrWrongTLD     = errors.New("registry: TLD not operated by this registry")
	ErrNotRenewable = errors.New("registry: domain not renewable in its current state")
)

type domainState struct {
	current *Registration // nil when available
	status  Status
	expired simtime.Day // when the current registration entered grace
	history []Registration
}

// Registry operates a set of TLDs (e.g. Verisign's com and net). It is safe
// for concurrent use.
type Registry struct {
	tlds map[string]bool

	mu      sync.RWMutex
	domains map[string]*domainState
	clock   simtime.Day
	// schedule holds (domain, due-day) checkpoints so Tick only visits
	// domains with a lifecycle transition due, not the whole namespace.
	schedule dueHeap
}

// dueEntry schedules a lifecycle check for a domain.
type dueEntry struct {
	domain string
	due    simtime.Day
}

// dueHeap is a min-heap on due day.
type dueHeap []dueEntry

func (h dueHeap) Len() int           { return len(h) }
func (h dueHeap) Less(i, j int) bool { return h[i].due < h[j].due }
func (h dueHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *dueHeap) Push(x any)        { *h = append(*h, x.(dueEntry)) }
func (h *dueHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// New creates a registry operating the given TLDs.
func New(tlds ...string) *Registry {
	r := &Registry{tlds: make(map[string]bool, len(tlds)), domains: make(map[string]*domainState)}
	for _, t := range tlds {
		r.tlds[dnsname.Canonical(t)] = true
	}
	return r
}

func (r *Registry) checkDomain(domain string) (string, error) {
	domain = dnsname.Canonical(domain)
	if err := dnsname.Check(domain, false); err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadDomain, err)
	}
	if dnsname.CountLabels(domain) != 2 {
		return "", fmt.Errorf("%w: %q is not a second-level domain", ErrBadDomain, domain)
	}
	if !r.tlds[dnsname.Parent(domain)] {
		return "", fmt.Errorf("%w: %q", ErrWrongTLD, domain)
	}
	return domain, nil
}

// Register creates a new registration for an available domain, valid for the
// given number of years. It returns the new registration.
func (r *Registry) Register(domain, registrant, registrar string, day simtime.Day, years int) (Registration, error) {
	domain, err := r.checkDomain(domain)
	if err != nil {
		return Registration{}, err
	}
	if years < 1 {
		years = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.domains[domain]
	if st == nil {
		st = &domainState{}
		r.domains[domain] = st
	}
	if st.current != nil {
		return Registration{}, fmt.Errorf("%w: %q is %v", ErrTaken, domain, st.status)
	}
	reg := Registration{
		Domain:     domain,
		Registrant: registrant,
		Registrar:  registrar,
		Created:    day,
		Expires:    day + simtime.Day(365*years),
	}
	st.current = &reg
	st.status = StatusActive
	heap.Push(&r.schedule, dueEntry{domain: domain, due: reg.Expires + 1})
	return reg, nil
}

// Renew extends the current registration. Domains in grace can still be
// renewed by their registrant; redemption and later cannot (drop instead).
func (r *Registry) Renew(domain string, day simtime.Day, years int) error {
	domain, err := r.checkDomain(domain)
	if err != nil {
		return err
	}
	if years < 1 {
		years = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.domains[domain]
	if st == nil || st.current == nil {
		return fmt.Errorf("%w: %q", ErrNotFound, domain)
	}
	if st.status != StatusActive && st.status != StatusGrace {
		return fmt.Errorf("%w: %q is %v", ErrNotRenewable, domain, st.status)
	}
	base := st.current.Expires
	if base < day {
		base = day
	}
	st.current.Expires = base + simtime.Day(365*years)
	st.status = StatusActive
	heap.Push(&r.schedule, dueEntry{domain: domain, due: st.current.Expires + 1})
	return nil
}

// Tick advances the lifecycle clock to day, moving expired domains through
// grace → redemption → pendingDelete → available. Released registrations move
// to history; their creation dates remain queryable via History. Tick is
// schedule-driven: only domains with a due transition are visited, so daily
// ticks over a large namespace stay cheap.
func (r *Registry) Tick(day simtime.Day) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if day > r.clock {
		r.clock = day
	}
	for len(r.schedule) > 0 && r.schedule[0].due <= day {
		e := heap.Pop(&r.schedule).(dueEntry)
		st := r.domains[e.domain]
		if st == nil || st.current == nil {
			continue // renewed-then-dropped or stale checkpoint
		}
		r.advance(e.domain, st, day)
	}
}

// advance runs the lifecycle cascade for one domain up to day and schedules
// the next checkpoint.
func (r *Registry) advance(domain string, st *domainState, day simtime.Day) {
	for st.current != nil {
		prev := st.status
		switch st.status {
		case StatusActive:
			if day > st.current.Expires {
				st.status = StatusGrace
				st.expired = st.current.Expires
			}
		case StatusGrace:
			if day > st.expired+GraceDays {
				st.status = StatusRedemption
			}
		case StatusRedemption:
			if day > st.expired+GraceDays+RedemptionDays {
				st.status = StatusPendingDelete
			}
		case StatusPendingDelete:
			if day > st.expired+GraceDays+RedemptionDays+PendingDeleteDays {
				st.history = append(st.history, *st.current)
				st.current = nil
				st.status = StatusAvailable
			}
		}
		if st.status == prev {
			break
		}
	}
	if st.current == nil {
		return
	}
	// Schedule the next transition checkpoint.
	var next simtime.Day
	switch st.status {
	case StatusActive:
		next = st.current.Expires + 1
	case StatusGrace:
		next = st.expired + GraceDays + 1
	case StatusRedemption:
		next = st.expired + GraceDays + RedemptionDays + 1
	case StatusPendingDelete:
		next = st.expired + GraceDays + RedemptionDays + PendingDeleteDays + 1
	}
	if next > day {
		heap.Push(&r.schedule, dueEntry{domain: domain, due: next})
	}
}

// Lookup returns the current registration and status of a domain.
func (r *Registry) Lookup(domain string) (Registration, Status, bool) {
	domain = dnsname.Canonical(domain)
	r.mu.RLock()
	defer r.mu.RUnlock()
	st := r.domains[domain]
	if st == nil || st.current == nil {
		return Registration{}, StatusAvailable, false
	}
	return *st.current, st.status, true
}

// History returns all past (released) registrations of a domain, oldest
// first, excluding the current one.
func (r *Registry) History(domain string) []Registration {
	domain = dnsname.Canonical(domain)
	r.mu.RLock()
	defer r.mu.RUnlock()
	st := r.domains[domain]
	if st == nil {
		return nil
	}
	return append([]Registration(nil), st.history...)
}

// ActiveDomains returns the currently registered domains, sorted.
func (r *Registry) ActiveDomains() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for d, st := range r.domains {
		if st.current != nil {
			out = append(out, d)
		}
	}
	sort.Strings(out)
	return out
}
