// Package x509sim provides the compact certificate model used throughout the
// reproduction. The paper analyses five billion CT entries; holding parsed
// crypto/x509 structures at even laptop scale would dominate memory, so this
// package models exactly the fields the pipelines consume — subscriber
// authentication (SANs + key), validity, issuer, serial, and CT metadata —
// with a deterministic binary codec and SHA-256 fingerprints for
// deduplication.
//
// Field selection mirrors the paper's certificate-information taxonomy
// (Table 1): subscriber authentication and certificate metadata are modelled
// in full; key authorization and issuer information are carried as compact
// enums since the pipelines only filter on them.
package x509sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"

	"stalecert/internal/dnsname"
	"stalecert/internal/simtime"
)

// IssuerID identifies an issuing CA (profile table lives in internal/ca).
type IssuerID uint16

// KeyID identifies a subject keypair. Key *ownership* over time is tracked by
// the world simulator; certificates only reference the key.
type KeyID uint64

// SerialNumber is unique per issuer.
type SerialNumber uint64

// Fingerprint is the SHA-256 digest of a certificate's canonical encoding,
// excluding CT components (precert poison, SCTs), so a precertificate and its
// final certificate share a fingerprint — the paper's dedup criterion.
type Fingerprint [32]byte

// String renders the first 8 bytes in hex, enough for logs and tests.
func (f Fingerprint) String() string {
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 0; i < 8; i++ {
		b[2*i] = hexdigits[f[i]>>4]
		b[2*i+1] = hexdigits[f[i]&0xf]
	}
	return string(b[:])
}

// Hex renders the full 32-byte fingerprint as 64 hex digits — the canonical
// external identifier the query API serves certificates under.
func (f Fingerprint) Hex() string {
	return hex.EncodeToString(f[:])
}

// ErrBadFingerprint is returned by ParseFingerprint for anything that is not
// 64 (full) or 16 (short-prefix) hex digits.
var ErrBadFingerprint = errors.New("x509sim: fingerprint must be 64 or 16 hex digits")

// ParseFingerprint parses the Hex form (64 digits) or the String short form
// (16 digits, the first 8 bytes). short reports which one was given; for a
// short form only the first 8 bytes of the result are meaningful.
func ParseFingerprint(s string) (f Fingerprint, short bool, err error) {
	switch len(s) {
	case 64:
	case 16:
		short = true
	default:
		return f, false, ErrBadFingerprint
	}
	raw, err := hex.DecodeString(s)
	if err != nil {
		return f, false, ErrBadFingerprint
	}
	copy(f[:], raw)
	return f, short, nil
}

// KeyUsage models the key-authorization taxonomy category (Table 1) as a bit
// set. Only ServerAuth matters to the detectors; the rest exist so
// key-authorization-change invalidation events can be represented.
type KeyUsage uint8

// KeyUsage bits.
const (
	UsageServerAuth KeyUsage = 1 << iota
	UsageClientAuth
	UsageCodeSigning
	UsageEmailProtection
	UsageOCSPSigning
)

// String lists the set bits.
func (u KeyUsage) String() string {
	names := []struct {
		bit  KeyUsage
		name string
	}{
		{UsageServerAuth, "serverAuth"},
		{UsageClientAuth, "clientAuth"},
		{UsageCodeSigning, "codeSigning"},
		{UsageEmailProtection, "emailProtection"},
		{UsageOCSPSigning, "ocspSigning"},
	}
	var parts []string
	for _, n := range names {
		if u&n.bit != 0 {
			parts = append(parts, n.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// Certificate is a leaf TLS certificate. Names are canonical DNS names
// (wildcards permitted) and are kept sorted; the zero value is not valid —
// construct with New.
type Certificate struct {
	Serial    SerialNumber
	Issuer    IssuerID
	Key       KeyID
	Names     []string // sorted canonical SANs
	NotBefore simtime.Day
	NotAfter  simtime.Day // inclusive
	Usage     KeyUsage
	Precert   bool  // precertificate (CT poison) vs final certificate
	SCTCount  uint8 // embedded SCTs (certificate metadata; excluded from fingerprint)
}

// Errors returned by New and Unmarshal.
var (
	ErrNoNames       = errors.New("x509sim: certificate has no names")
	ErrBadValidity   = errors.New("x509sim: notAfter before notBefore")
	ErrBadName       = errors.New("x509sim: invalid SAN")
	ErrTruncated     = errors.New("x509sim: truncated encoding")
	ErrBadMagic      = errors.New("x509sim: bad magic byte")
	ErrTooManyNames  = errors.New("x509sim: too many SANs")
	ErrTrailingBytes = errors.New("x509sim: trailing bytes")
)

// MaxNames caps SANs per certificate. Cloudflare cruise-liner certificates
// carried dozens of customers; 256 is far above anything the simulator emits
// and keeps the codec's length fields in one byte.
const MaxNames = 256

// MaxMarshaledLen is the longest Marshal encoding: MaxNames SANs of 253
// octets, the longest DNS name.
const MaxMarshaledLen = 3 + bodyFixed + MaxNames*(1+253)

// New validates and canonicalises a certificate. Names are canonicalised,
// deduplicated and sorted; usage defaults to serverAuth when zero.
func New(serial SerialNumber, issuer IssuerID, key KeyID, names []string, notBefore, notAfter simtime.Day) (*Certificate, error) {
	if len(names) == 0 {
		return nil, ErrNoNames
	}
	if len(names) > MaxNames {
		return nil, ErrTooManyNames
	}
	if notAfter < notBefore {
		return nil, ErrBadValidity
	}
	canon := make([]string, 0, len(names))
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		n = dnsname.Canonical(n)
		if err := dnsname.Check(n, true); err != nil {
			return nil, fmt.Errorf("%w: %q: %v", ErrBadName, n, err)
		}
		if !seen[n] {
			seen[n] = true
			canon = append(canon, n)
		}
	}
	sort.Strings(canon)
	return &Certificate{
		Serial:    serial,
		Issuer:    issuer,
		Key:       key,
		Names:     canon,
		NotBefore: notBefore,
		NotAfter:  notAfter,
		Usage:     UsageServerAuth,
	}, nil
}

// LifetimeDays returns the certificate's validity period in days, counting
// both endpoints (a cert valid on one day has lifetime 1).
func (c *Certificate) LifetimeDays() int {
	return int(c.NotAfter-c.NotBefore) + 1
}

// ValidOn reports whether the certificate is within its validity period on d.
func (c *Certificate) ValidOn(d simtime.Day) bool {
	return d >= c.NotBefore && d <= c.NotAfter
}

// Covers reports whether any SAN covers name (exact or wildcard match).
func (c *Certificate) Covers(name string) bool {
	for _, san := range c.Names {
		if dnsname.MatchWildcard(san, name) {
			return true
		}
	}
	return false
}

// HasName reports whether name appears verbatim in the SAN set.
func (c *Certificate) HasName(name string) bool {
	i := sort.SearchStrings(c.Names, name)
	return i < len(c.Names) && c.Names[i] == name
}

// Fingerprint hashes the canonical encoding excluding CT components. The
// encoding of all but many-SAN certificates is built on the stack.
func (c *Certificate) Fingerprint() Fingerprint {
	var buf [256]byte
	return sha256.Sum256(c.appendBody(buf[:0]))
}

// DedupKey is the (issuer key, serial) pair CRLs identify certificates by.
type DedupKey struct {
	Issuer IssuerID
	Serial SerialNumber
}

// DedupKey returns the CRL-join key for this certificate.
func (c *Certificate) DedupKey() DedupKey {
	return DedupKey{Issuer: c.Issuer, Serial: c.Serial}
}

// Clone returns a deep copy.
func (c *Certificate) Clone() *Certificate {
	dup := *c
	dup.Names = append([]string(nil), c.Names...)
	return &dup
}

// String summarises the certificate for logs.
func (c *Certificate) String() string {
	kind := "cert"
	if c.Precert {
		kind = "precert"
	}
	return fmt.Sprintf("%s{issuer=%d serial=%d key=%d names=%v validity=%s..%s}",
		kind, c.Issuer, c.Serial, c.Key, c.Names, c.NotBefore, c.NotAfter)
}

const (
	magicBody = 0xC5 // canonical body (fingerprint input)
	magicFull = 0xC6 // full encoding including CT metadata

	// bodyFixed is the body's length before the SANs: magic, serial, issuer,
	// key, notBefore, notAfter, usage, SAN count.
	bodyFixed = 1 + 8 + 2 + 8 + 4 + 4 + 1 + 1
)

// appendBody appends the canonical non-CT encoding: everything except the
// precert flag and SCT count.
func (c *Certificate) appendBody(b []byte) []byte {
	b = append(b, magicBody)
	b = binary.BigEndian.AppendUint64(b, uint64(c.Serial))
	b = binary.BigEndian.AppendUint16(b, uint16(c.Issuer))
	b = binary.BigEndian.AppendUint64(b, uint64(c.Key))
	b = binary.BigEndian.AppendUint32(b, uint32(int32(c.NotBefore)))
	b = binary.BigEndian.AppendUint32(b, uint32(int32(c.NotAfter)))
	b = append(b, byte(c.Usage))
	b = append(b, byte(len(c.Names)-1))
	for _, n := range c.Names {
		b = append(b, byte(len(n)))
		b = append(b, n...)
	}
	return b
}

// Marshal encodes the certificate to its deterministic wire form.
func (c *Certificate) Marshal() []byte {
	return c.AppendMarshal(make([]byte, 0, c.MarshaledLen()))
}

// MarshaledLen is len(c.Marshal()), for callers sizing a buffer.
func (c *Certificate) MarshaledLen() int {
	n := 3 + bodyFixed + len(c.Names)
	for _, name := range c.Names {
		n += len(name)
	}
	return n
}

// AppendMarshal appends the Marshal encoding to b.
func (c *Certificate) AppendMarshal(b []byte) []byte {
	b = append(b, magicFull)
	var flags byte
	if c.Precert {
		flags |= 1
	}
	b = append(b, flags, c.SCTCount)
	return c.appendBody(b)
}

// Unmarshal decodes a certificate produced by Marshal. It rejects trailing
// bytes so framing bugs surface immediately.
func Unmarshal(b []byte) (*Certificate, error) {
	c, rest, err := unmarshalPrefix(b)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, ErrTrailingBytes
	}
	return c, nil
}

// unmarshalPrefix decodes one certificate from the front of b, returning the
// unconsumed remainder.
func unmarshalPrefix(b []byte) (*Certificate, []byte, error) {
	if len(b) < 3 {
		return nil, nil, ErrTruncated
	}
	if b[0] != magicFull {
		return nil, nil, ErrBadMagic
	}
	flags, scts := b[1], b[2]
	b = b[3:]
	if len(b) < bodyFixed {
		return nil, nil, ErrTruncated
	}
	if b[0] != magicBody {
		return nil, nil, ErrBadMagic
	}
	c := &Certificate{
		Serial:    SerialNumber(binary.BigEndian.Uint64(b[1:])),
		Issuer:    IssuerID(binary.BigEndian.Uint16(b[9:])),
		Key:       KeyID(binary.BigEndian.Uint64(b[11:])),
		NotBefore: simtime.Day(int32(binary.BigEndian.Uint32(b[19:]))),
		NotAfter:  simtime.Day(int32(binary.BigEndian.Uint32(b[23:]))),
		Usage:     KeyUsage(b[27]),
		Precert:   flags&1 != 0,
		SCTCount:  scts,
	}
	n := int(b[28]) + 1
	b = b[bodyFixed:]
	c.Names = make([]string, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 1 {
			return nil, nil, ErrTruncated
		}
		l := int(b[0])
		if len(b) < 1+l {
			return nil, nil, ErrTruncated
		}
		c.Names = append(c.Names, string(b[1:1+l]))
		b = b[1+l:]
	}
	if c.NotAfter < c.NotBefore {
		return nil, nil, ErrBadValidity
	}
	return c, b, nil
}
