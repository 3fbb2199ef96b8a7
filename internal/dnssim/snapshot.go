package dnssim

import (
	"context"
	"errors"
	"sort"

	"stalecert/internal/obs"
	"stalecert/internal/simtime"
)

// Daily-differ metrics: how much work each snapshot diff does and what it
// finds (the managed-TLS departure signal).
var (
	mDiffDomains    = obs.Default().Counter("dns_snapshot_domains_diffed_total")
	mDiffDepartures = obs.Default().Counter("dns_departures_found_total")
)

// Snapshot is one day's scan results: per-domain resource records for the
// A/AAAA/NS/CNAME types the paper's aDNS dataset collects.
type Snapshot struct {
	Day      simtime.Day
	byDomain map[string][]Record
}

// NewSnapshot creates an empty snapshot for a day.
func NewSnapshot(day simtime.Day) *Snapshot {
	return &Snapshot{Day: day, byDomain: make(map[string][]Record)}
}

// Add appends records observed for domain.
func (s *Snapshot) Add(domain string, recs ...Record) {
	if len(recs) == 0 {
		// Record the domain as scanned-but-empty so diffs can distinguish
		// "resolved to nothing" from "not scanned".
		if _, ok := s.byDomain[domain]; !ok {
			s.byDomain[domain] = nil
		}
		return
	}
	s.byDomain[domain] = append(s.byDomain[domain], recs...)
}

// Domains returns all scanned domains, sorted.
func (s *Snapshot) Domains() []string {
	out := make([]string, 0, len(s.byDomain))
	for d := range s.byDomain {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Records returns the records observed for domain.
func (s *Snapshot) Records(domain string) []Record { return s.byDomain[domain] }

// Scanned reports whether domain was scanned on this day.
func (s *Snapshot) Scanned(domain string) bool {
	_, ok := s.byDomain[domain]
	return ok
}

// Matches reports whether any record for domain satisfies pred.
func (s *Snapshot) Matches(domain string, pred func(Record) bool) bool {
	for _, r := range s.byDomain[domain] {
		if pred(r) {
			return true
		}
	}
	return false
}

// Len returns the number of scanned domains.
func (s *Snapshot) Len() int { return len(s.byDomain) }

// CountByType tallies records by type, the Table 3 dataset accounting.
func (s *Snapshot) CountByType() map[RRType]int {
	out := make(map[RRType]int)
	for _, recs := range s.byDomain {
		for _, r := range recs {
			out[r.Type]++
		}
	}
	return out
}

// Departure records that a domain stopped matching a pattern between two
// consecutive scan days: present on LastSeen, absent on FirstGone. This is
// exactly the paper's managed-TLS departure signal (Cloudflare NS/CNAME
// present one day, gone the next).
type Departure struct {
	Domain    string
	LastSeen  simtime.Day
	FirstGone simtime.Day
}

// FindDepartures diffs two consecutive snapshots: domains matching pred in
// prev but scanned-and-not-matching in next. Domains missing from next's
// scan are skipped (can't distinguish departure from scan failure).
func FindDepartures(prev, next *Snapshot, pred func(Record) bool) []Departure {
	var out []Departure
	mDiffDomains.Add(uint64(len(prev.byDomain)))
	defer func() { mDiffDepartures.Add(uint64(len(out))) }()
	for domain := range prev.byDomain {
		if !prev.Matches(domain, pred) {
			continue
		}
		if !next.Scanned(domain) {
			continue
		}
		if !next.Matches(domain, pred) {
			out = append(out, Departure{Domain: domain, LastSeen: prev.Day, FirstGone: next.Day})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}

// Scanners.

// ScanTypes are the record types the daily collection resolves, matching the
// paper's dataset.
var ScanTypes = []RRType{TypeA, TypeAAAA, TypeNS, TypeCNAME}

// WireScanner performs the daily scan over real UDP through a Resolver.
// It is the fidelity path: integration tests prove the full wire pipeline.
type WireScanner struct {
	Resolver *Resolver
	// Prefixes are additional owner names scanned per domain ("" scans the
	// apex; "www" scans www.<domain>, where CNAME delegation usually lives).
	Prefixes []string
}

// Scan resolves every domain for every ScanType and returns the snapshot.
func (ws *WireScanner) Scan(ctx context.Context, day simtime.Day, domains []string) (*Snapshot, error) {
	prefixes := ws.Prefixes
	if prefixes == nil {
		prefixes = []string{"", "www"}
	}
	snap := NewSnapshot(day)
	for _, domain := range domains {
		scanned := false
		for _, prefix := range prefixes {
			name := domain
			if prefix != "" {
				name = prefix + "." + domain
			}
			for _, t := range ScanTypes {
				recs, err := ws.Resolver.Query(ctx, name, t)
				var nx *NXDomainError
				if errors.As(err, &nx) {
					scanned = true // authoritative negative answer
					continue
				}
				if err != nil {
					if ctx.Err() != nil {
						return nil, ctx.Err()
					}
					continue // transient failure: domain may be rescanned tomorrow
				}
				scanned = true
				snap.Add(domain, recs...)
			}
		}
		if scanned {
			snap.Add(domain) // mark as scanned even if empty
		}
	}
	return snap, nil
}

// DirectScanner reads the zone store in-process, skipping the UDP round
// trip. It is the throughput path used for large simulations; the ablation
// bench quantifies the difference against WireScanner.
type DirectScanner struct {
	Store *Store
	// Prefixes as in WireScanner.
	Prefixes []string
}

// Scan snapshots the store's view of every domain.
func (ds *DirectScanner) Scan(day simtime.Day, domains []string) *Snapshot {
	prefixes := ds.Prefixes
	if prefixes == nil {
		prefixes = []string{"", "www"}
	}
	snap := NewSnapshot(day)
	for _, domain := range domains {
		found := false
		for _, prefix := range prefixes {
			name := domain
			if prefix != "" {
				name = prefix + "." + domain
			}
			for _, t := range ScanTypes {
				recs, rcode, auth := ds.Store.Resolve(Question{Name: name, Type: t, Class: ClassIN})
				if auth {
					found = true // authoritative answer, even NXDOMAIN/NODATA
				}
				if rcode == RCodeNoError && len(recs) > 0 {
					snap.Add(domain, recs...)
				}
			}
		}
		if found {
			snap.Add(domain)
		}
	}
	return snap
}
