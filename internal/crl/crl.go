// Package crl implements the certificate-revocation substrate: RFC 5280
// revocation reasons, per-CA certificate revocation lists with a
// deterministic binary codec, HTTP distribution points with the
// scrape-protection failures the paper encountered, a daily fetcher, and the
// per-CA coverage ledger behind Appendix B (Table 7).
package crl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

// Reason is an RFC 5280 CRLReason code.
type Reason uint8

// RFC 5280 reason codes. Value 7 is unused in the RFC.
const (
	Unspecified          Reason = 0
	KeyCompromise        Reason = 1
	CACompromise         Reason = 2
	AffiliationChanged   Reason = 3
	Superseded           Reason = 4
	CessationOfOperation Reason = 5
	CertificateHold      Reason = 6
	RemoveFromCRL        Reason = 8
	PrivilegeWithdrawn   Reason = 9
	AACompromise         Reason = 10
)

var reasonNames = map[Reason]string{
	Unspecified:          "unspecified",
	KeyCompromise:        "keyCompromise",
	CACompromise:         "cACompromise",
	AffiliationChanged:   "affiliationChanged",
	Superseded:           "superseded",
	CessationOfOperation: "cessationOfOperation",
	CertificateHold:      "certificateHold",
	RemoveFromCRL:        "removeFromCRL",
	PrivilegeWithdrawn:   "privilegeWithdrawn",
	AACompromise:         "aACompromise",
}

// String names the reason code.
func (r Reason) String() string {
	if n, ok := reasonNames[r]; ok {
		return n
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// Entry is a single revocation: CRLs carry only the issuer key, serial,
// revocation time and reason — never the certificate body — which is why the
// pipeline must join them against CT.
type Entry struct {
	Issuer    x509sim.IssuerID
	Serial    x509sim.SerialNumber
	RevokedAt simtime.Day
	Reason    Reason
}

// Key returns the CT-join key.
func (e Entry) Key() x509sim.DedupKey {
	return x509sim.DedupKey{Issuer: e.Issuer, Serial: e.Serial}
}

// List is one CRL issuance: a snapshot of all unexpired revocations by one
// CA at ThisUpdate.
type List struct {
	CAName     string
	Number     uint64 // monotone CRL number
	ThisUpdate simtime.Day
	NextUpdate simtime.Day
	Entries    []Entry
}

// Codec errors.
var (
	ErrTruncated = errors.New("crl: truncated encoding")
	ErrBadMagic  = errors.New("crl: bad magic")
	ErrTrailing  = errors.New("crl: trailing bytes")
)

const listMagic = 0xCA

// Marshal encodes the list deterministically.
func (l *List) Marshal() []byte {
	b := make([]byte, 0, 32+len(l.CAName)+15*len(l.Entries))
	b = append(b, listMagic)
	b = append(b, byte(len(l.CAName)))
	b = append(b, l.CAName...)
	b = binary.BigEndian.AppendUint64(b, l.Number)
	b = binary.BigEndian.AppendUint32(b, uint32(int32(l.ThisUpdate)))
	b = binary.BigEndian.AppendUint32(b, uint32(int32(l.NextUpdate)))
	b = binary.BigEndian.AppendUint32(b, uint32(len(l.Entries)))
	for _, e := range l.Entries {
		b = binary.BigEndian.AppendUint16(b, uint16(e.Issuer))
		b = binary.BigEndian.AppendUint64(b, uint64(e.Serial))
		b = binary.BigEndian.AppendUint32(b, uint32(int32(e.RevokedAt)))
		b = append(b, byte(e.Reason))
	}
	return b
}

// Unmarshal decodes a list produced by Marshal.
func Unmarshal(b []byte) (*List, error) {
	if len(b) < 2 {
		return nil, ErrTruncated
	}
	if b[0] != listMagic {
		return nil, ErrBadMagic
	}
	nameLen := int(b[1])
	b = b[2:]
	if len(b) < nameLen+20 {
		return nil, ErrTruncated
	}
	l := &List{CAName: string(b[:nameLen])}
	b = b[nameLen:]
	l.Number = binary.BigEndian.Uint64(b)
	l.ThisUpdate = simtime.Day(int32(binary.BigEndian.Uint32(b[8:])))
	l.NextUpdate = simtime.Day(int32(binary.BigEndian.Uint32(b[12:])))
	n := int(binary.BigEndian.Uint32(b[16:]))
	b = b[20:]
	const entrySize = 2 + 8 + 4 + 1
	if len(b) < n*entrySize {
		return nil, ErrTruncated
	}
	l.Entries = make([]Entry, n)
	for i := 0; i < n; i++ {
		l.Entries[i] = Entry{
			Issuer:    x509sim.IssuerID(binary.BigEndian.Uint16(b)),
			Serial:    x509sim.SerialNumber(binary.BigEndian.Uint64(b[2:])),
			RevokedAt: simtime.Day(int32(binary.BigEndian.Uint32(b[10:]))),
			Reason:    Reason(b[14]),
		}
		b = b[entrySize:]
	}
	if len(b) != 0 {
		return nil, ErrTrailing
	}
	return l, nil
}

// Authority is one CA's revocation infrastructure: it accumulates
// revocations and publishes daily CRL snapshots. Safe for concurrent use.
type Authority struct {
	name string

	mu      sync.Mutex
	number  uint64
	entries []Entry
	index   map[x509sim.DedupKey]int
}

// NewAuthority creates a CA revocation authority.
func NewAuthority(name string) *Authority {
	return &Authority{name: name, index: make(map[x509sim.DedupKey]int)}
}

// Name returns the CA name.
func (a *Authority) Name() string { return a.name }

// Revoke records a revocation. Re-revoking the same certificate keeps the
// earliest revocation (CAs do not move revocation times).
func (a *Authority) Revoke(issuer x509sim.IssuerID, serial x509sim.SerialNumber, day simtime.Day, reason Reason) {
	a.mu.Lock()
	defer a.mu.Unlock()
	key := x509sim.DedupKey{Issuer: issuer, Serial: serial}
	if _, ok := a.index[key]; ok {
		return
	}
	a.index[key] = len(a.entries)
	a.entries = append(a.entries, Entry{Issuer: issuer, Serial: serial, RevokedAt: day, Reason: reason})
}

// IsRevoked reports whether the given certificate key has been revoked.
func (a *Authority) IsRevoked(key x509sim.DedupKey) (Entry, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if i, ok := a.index[key]; ok {
		return a.entries[i], true
	}
	return Entry{}, false
}

// Snapshot issues the CA's CRL as of day: all revocations with RevokedAt on
// or before day, sorted for determinism, with a 7-day nextUpdate window.
func (a *Authority) Snapshot(day simtime.Day) *List {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.number++
	l := &List{CAName: a.name, Number: a.number, ThisUpdate: day, NextUpdate: day + 7}
	for _, e := range a.entries {
		if e.RevokedAt <= day {
			l.Entries = append(l.Entries, e)
		}
	}
	sort.Slice(l.Entries, func(i, j int) bool {
		if l.Entries[i].Issuer != l.Entries[j].Issuer {
			return l.Entries[i].Issuer < l.Entries[j].Issuer
		}
		return l.Entries[i].Serial < l.Entries[j].Serial
	})
	return l
}
