// Package ca implements the certificate-authority substrate: issuer
// profiles for the CAs that dominate the paper's figures, domain-validated
// issuance behind a pluggable control validator,
// renewal automation, lifetime policy by era, and revocation publishing into
// the CRL substrate.
package ca

import (
	"sort"

	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

// Era boundaries for maximum DV certificate lifetimes (§6 of the paper).
var (
	// Era825 begins 2018-03-01: CA/Browser Forum ballot 193 (825 days).
	Era825 = simtime.MustParse("2018-03-01")
	// Era398 begins 2020-09-01: browser-enforced 398-day maximum.
	Era398 = simtime.MustParse("2020-09-01")
)

// MaxLifetime returns the ecosystem-wide maximum DV lifetime in days at a
// given issuance day.
func MaxLifetime(day simtime.Day) int {
	switch {
	case day >= Era398:
		return 398
	case day >= Era825:
		return 825
	default:
		return 1095 // pre-2018 three-year certificates
	}
}

// Profile describes one issuing CA.
type Profile struct {
	ID   x509sim.IssuerID
	Name string
	// DefaultLifetime is the CA's usual issuance lifetime in days (clamped
	// to the era maximum at issuance time). 0 means "issue at era maximum".
	DefaultLifetime int
	// Automated marks ACME-automated CAs that auto-renew unattended.
	Automated bool
	// ManagedTLS marks CAs that exist to serve a CDN/hosting provider.
	ManagedTLS bool
	// CRLFailRate is the probability a daily CRL fetch is blocked by scrape
	// protection (Appendix B).
	CRLFailRate float64
	// ReportsKeyCompromise gives the day the CA began publishing
	// keyCompromise revocation reasons (NoDay = always did).
	ReportsKeyCompromise simtime.Day
	// Share is the CA's relative issuance volume weight in the simulator.
	Share float64
	// ActiveFrom bounds when the CA exists.
	ActiveFrom simtime.Day
}

// Lifetime returns the profile's issuance lifetime at a given day, clamped
// to the era maximum.
func (p Profile) Lifetime(day simtime.Day) int {
	maxDays := MaxLifetime(day)
	if p.DefaultLifetime == 0 || p.DefaultLifetime > maxDays {
		return maxDays
	}
	return p.DefaultLifetime
}

// Canonical issuer IDs for the CAs named in the paper's figures and text.
// IDs are stable: they appear in serialized certificates.
const (
	IssuerComodoDV x509sim.IssuerID = iota + 1 // "COMODO ECC DV Secure Server CA 2"
	IssuerLetsEncryptX3
	IssuerCPanel
	IssuerCloudflareECC // "CloudFlare ECC CA-2"
	IssuerGoDaddy
	IssuerEntrust
	IssuerSectigo
	IssuerDigiCert
	IssuerGlobalSign
	IssuerGTS // Google Trust Services
)

// builtinProfiles is the default CA landscape. Lifetimes and behaviours
// follow the paper: Let's Encrypt, cPanel and GTS self-enforce 90 days;
// GoDaddy/Entrust/Sectigo issue at the era maximum; Cloudflare's CA backs
// its managed TLS; COMODO issued the 2018-era cruise-liner certificates.
var builtinProfiles = []Profile{
	{ID: IssuerComodoDV, Name: "COMODO ECC DV Secure Server CA 2", DefaultLifetime: 365, ManagedTLS: true, CRLFailRate: 0.004, Share: 0.10, ActiveFrom: simtime.MustParse("2014-01-01"), ReportsKeyCompromise: simtime.NoDay},
	{ID: IssuerLetsEncryptX3, Name: "Let's Encrypt X3", DefaultLifetime: 90, Automated: true, CRLFailRate: 0, Share: 0.38, ActiveFrom: simtime.MustParse("2015-12-01"), ReportsKeyCompromise: simtime.MustParse("2022-07-01")},
	{ID: IssuerCPanel, Name: "cPanel, Inc. CA", DefaultLifetime: 90, Automated: true, ManagedTLS: true, CRLFailRate: 0, Share: 0.08, ActiveFrom: simtime.MustParse("2016-03-01"), ReportsKeyCompromise: simtime.NoDay},
	{ID: IssuerCloudflareECC, Name: "CloudFlare ECC CA-2", DefaultLifetime: 365, Automated: true, ManagedTLS: true, CRLFailRate: 0, Share: 0.12, ActiveFrom: simtime.MustParse("2019-01-01"), ReportsKeyCompromise: simtime.NoDay},
	{ID: IssuerGoDaddy, Name: "GoDaddy", DefaultLifetime: 398, CRLFailRate: 0.002, Share: 0.09, ActiveFrom: 0, ReportsKeyCompromise: simtime.NoDay},
	{ID: IssuerEntrust, Name: "Entrust", DefaultLifetime: 398, CRLFailRate: 0.015, Share: 0.04, ActiveFrom: 0, ReportsKeyCompromise: simtime.NoDay},
	{ID: IssuerSectigo, Name: "Sectigo", DefaultLifetime: 398, CRLFailRate: 0.004, Share: 0.10, ActiveFrom: simtime.MustParse("2018-11-01"), ReportsKeyCompromise: simtime.NoDay},
	{ID: IssuerDigiCert, Name: "DigiCert", DefaultLifetime: 397, CRLFailRate: 0.013, Share: 0.12, ActiveFrom: 0, ReportsKeyCompromise: simtime.NoDay},
	{ID: IssuerGlobalSign, Name: "GlobalSign", DefaultLifetime: 397, CRLFailRate: 0.026, Share: 0.05, ActiveFrom: 0, ReportsKeyCompromise: simtime.NoDay},
	{ID: IssuerGTS, Name: "Google Trust Services", DefaultLifetime: 90, Automated: true, CRLFailRate: 0, Share: 0.02, ActiveFrom: simtime.MustParse("2017-06-01"), ReportsKeyCompromise: simtime.NoDay},
}

// Directory resolves issuer IDs to profiles.
type Directory struct {
	byID map[x509sim.IssuerID]Profile
}

// NewDirectory builds a directory from profiles (builtin when none given).
func NewDirectory(profiles ...Profile) *Directory {
	if len(profiles) == 0 {
		profiles = builtinProfiles
	}
	d := &Directory{byID: make(map[x509sim.IssuerID]Profile, len(profiles))}
	for _, p := range profiles {
		d.byID[p.ID] = p
	}
	return d
}

// Profile returns the profile for an issuer ID.
func (d *Directory) Profile(id x509sim.IssuerID) (Profile, bool) {
	p, ok := d.byID[id]
	return p, ok
}

// Name returns the issuer's display name ("issuer-N" if unknown).
func (d *Directory) Name(id x509sim.IssuerID) string {
	if p, ok := d.byID[id]; ok {
		return p.Name
	}
	return "issuer-" + itoa(int(id))
}

// All returns every profile sorted by ID.
func (d *Directory) All() []Profile {
	out := make([]Profile, 0, len(d.byID))
	for _, p := range d.byID {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Names returns every CA's name in ID order: the CRL distribution points a
// full revocation pull covers.
func (d *Directory) Names() []string {
	all := d.All()
	names := make([]string, len(all))
	for i, p := range all {
		names[i] = p.Name
	}
	return names
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}
