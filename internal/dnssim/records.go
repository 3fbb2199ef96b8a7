// Package dnssim implements the active-DNS substrate: resource records and
// zones, an RFC 1035 wire codec with name compression, a UDP authoritative
// server and a resolver — the machinery behind the paper's aDNS dataset
// (300M A/AAAA, 274M NS, 10M CNAME records per day) — and the Departure its
// managed-TLS detection reports.
package dnssim

import (
	"fmt"
	"net/netip"
	"strings"
	"sync"

	"stalecert/internal/dnsname"
	"stalecert/internal/simtime"
)

// RRType is a DNS resource-record type code (RFC 1035 / 3596 values).
type RRType uint16

// Record types the simulator understands.
const (
	TypeA     RRType = 1
	TypeNS    RRType = 2
	TypeCNAME RRType = 5
	TypeSOA   RRType = 6
	TypeTXT   RRType = 16
	TypeAAAA  RRType = 28
)

var rrTypeNames = map[RRType]string{
	TypeA: "A", TypeNS: "NS", TypeCNAME: "CNAME",
	TypeSOA: "SOA", TypeTXT: "TXT", TypeAAAA: "AAAA",
}

// String names the type.
func (t RRType) String() string {
	if n, ok := rrTypeNames[t]; ok {
		return n
	}
	return fmt.Sprintf("TYPE%d", uint16(t))
}

// ParseRRType parses a textual type name ("A", "NS", ...).
func ParseRRType(s string) (RRType, bool) {
	for t, n := range rrTypeNames {
		if n == s {
			return t, true
		}
	}
	return 0, false
}

// ClassIN is the only class the simulator serves.
const ClassIN uint16 = 1

// Record is one resource record. Data holds the type-specific payload in
// presentation form: a textual IP for A/AAAA, a canonical target name for
// NS/CNAME/SOA-mname, free text for TXT.
type Record struct {
	Name string
	Type RRType
	TTL  uint32
	Data string
}

// String renders the record in zone-file style.
func (r Record) String() string {
	return fmt.Sprintf("%s %d IN %s %s", r.Name, r.TTL, r.Type, r.Data)
}

// Validate checks internal consistency (names canonical, data parseable).
func (r Record) Validate() error {
	if err := dnsname.Check(r.Name, true); err != nil {
		return fmt.Errorf("dnssim: record name: %w", err)
	}
	switch r.Type {
	case TypeA:
		ip, err := netip.ParseAddr(r.Data)
		if err != nil || !ip.Is4() {
			return fmt.Errorf("dnssim: A record %q: bad IPv4 %q", r.Name, r.Data)
		}
	case TypeAAAA:
		ip, err := netip.ParseAddr(r.Data)
		if err != nil || !ip.Is6() {
			return fmt.Errorf("dnssim: AAAA record %q: bad IPv6 %q", r.Name, r.Data)
		}
	case TypeNS, TypeCNAME:
		if err := dnsname.Check(r.Data, false); err != nil {
			return fmt.Errorf("dnssim: %s target %q: %w", r.Type, r.Data, err)
		}
	case TypeTXT:
		if len(r.Data) > 255 {
			return fmt.Errorf("dnssim: TXT record %q exceeds 255 bytes", r.Name)
		}
	case TypeSOA:
		if err := dnsname.Check(r.Data, false); err != nil {
			return fmt.Errorf("dnssim: SOA mname %q: %w", r.Data, err)
		}
	default:
		return fmt.Errorf("dnssim: unsupported type %v", r.Type)
	}
	return nil
}

// Key identifies an RRSet: one (owner name, type) pair.
type Key struct {
	Name string
	Type RRType
}

// Zone is a mutable set of records under one apex, safe for concurrent use
// (the UDP server answers queries while enrolments and departures mutate the
// zone). The zero value is not usable; construct with NewZone.
type Zone struct {
	Apex string

	mu   sync.RWMutex
	sets map[Key][]Record
}

// NewZone creates an empty zone rooted at apex (e.g. "com").
func NewZone(apex string) *Zone {
	return &Zone{Apex: dnsname.Canonical(apex), sets: make(map[Key][]Record)}
}

// Add inserts a record after validation; duplicate data under the same key
// is ignored.
func (z *Zone) Add(r Record) error {
	r.Name = dnsname.Canonical(r.Name)
	if r.Type == TypeNS || r.Type == TypeCNAME || r.Type == TypeSOA {
		r.Data = dnsname.Canonical(r.Data)
	}
	if err := r.Validate(); err != nil {
		return err
	}
	if !dnsname.IsSubdomain(r.Name, z.Apex) {
		return fmt.Errorf("dnssim: %q outside zone %q", r.Name, z.Apex)
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	k := Key{Name: r.Name, Type: r.Type}
	for _, existing := range z.sets[k] {
		if existing.Data == r.Data {
			return nil
		}
	}
	z.sets[k] = append(z.sets[k], r)
	return nil
}

// Remove deletes records matching (name, type, data); empty data removes the
// whole RRSet. It returns the number of records removed.
func (z *Zone) Remove(name string, t RRType, data string) int {
	z.mu.Lock()
	defer z.mu.Unlock()
	k := Key{Name: dnsname.Canonical(name), Type: t}
	set, ok := z.sets[k]
	if !ok {
		return 0
	}
	if data == "" {
		delete(z.sets, k)
		return len(set)
	}
	kept := set[:0]
	removed := 0
	for _, r := range set {
		if r.Data == data {
			removed++
			continue
		}
		kept = append(kept, r)
	}
	if len(kept) == 0 {
		delete(z.sets, k)
	} else {
		z.sets[k] = kept
	}
	return removed
}

// Lookup returns the RRSet for (name, type), nil if absent. The returned
// slice is the caller's: Remove compacts sets in place, so sharing the
// backing array would race with later mutation.
func (z *Zone) Lookup(name string, t RRType) []Record {
	z.mu.RLock()
	defer z.mu.RUnlock()
	set := z.sets[Key{Name: dnsname.Canonical(name), Type: t}]
	if set == nil {
		return nil
	}
	return append([]Record(nil), set...)
}

// Len returns the number of records.
func (z *Zone) Len() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	n := 0
	for _, set := range z.sets {
		n += len(set)
	}
	return n
}

// ParseZoneFile reads a minimal master-file format: one record per line,
// "name TTL IN TYPE data...", with ';' comments and blank lines ignored.
// This is the format the CZDS-style zone snapshots are exchanged in.
func ParseZoneFile(apex, text string) (*Zone, error) {
	z := NewZone(apex)
	for lineNo, line := range strings.Split(text, "\n") {
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 5 {
			return nil, fmt.Errorf("dnssim: zone line %d: want 5 fields, got %d", lineNo+1, len(fields))
		}
		var ttl uint32
		if _, err := fmt.Sscanf(fields[1], "%d", &ttl); err != nil {
			return nil, fmt.Errorf("dnssim: zone line %d: bad TTL %q", lineNo+1, fields[1])
		}
		if fields[2] != "IN" {
			return nil, fmt.Errorf("dnssim: zone line %d: class %q unsupported", lineNo+1, fields[2])
		}
		t, ok := ParseRRType(fields[3])
		if !ok {
			return nil, fmt.Errorf("dnssim: zone line %d: type %q unsupported", lineNo+1, fields[3])
		}
		r := Record{Name: fields[0], TTL: ttl, Type: t, Data: strings.Join(fields[4:], " ")}
		if err := z.Add(r); err != nil {
			return nil, fmt.Errorf("dnssim: zone line %d: %w", lineNo+1, err)
		}
	}
	return z, nil
}

// Departure records that a domain stopped delegating to the managed-TLS
// provider between two consecutive scan days: delegated on LastSeen, not on
// FirstGone (Cloudflare NS/CNAME present one day, gone the next).
type Departure struct {
	Domain    string
	LastSeen  simtime.Day
	FirstGone simtime.Day
}
