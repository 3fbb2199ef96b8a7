package ca

import (
	"errors"
	"fmt"
	"sync"

	"stalecert/internal/crl"
	"stalecert/internal/ctlog"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

// Validator confirms a requester's control of a domain before issuance —
// the DV check of §2.2. The world simulator supplies its ground-truth
// validator.
type Validator interface {
	ValidateControl(domain, account string, day simtime.Day) error
}

// ValidatorFunc adapts a function to Validator.
type ValidatorFunc func(domain, account string, day simtime.Day) error

// ValidateControl implements Validator.
func (f ValidatorFunc) ValidateControl(domain, account string, day simtime.Day) error {
	return f(domain, account, day)
}

// Issuance errors.
var (
	ErrValidation = errors.New("ca: domain validation failed")
	ErrNotActive  = errors.New("ca: CA not active at issuance day")
	ErrNoNames    = errors.New("ca: no names requested")
)

// ReuseWindow is the domain-validation reuse period: a CA may skip
// re-validation for an account that proved control within the last 398 days
// (§4.4 "domain validation reuse").
const ReuseWindow = 398

// CA issues certificates under one issuer profile. Safe for concurrent use.
type CA struct {
	profile   Profile
	validator Validator
	logs      *ctlog.Collection
	authority *crl.Authority

	mu         sync.Mutex
	nextSerial x509sim.SerialNumber
	nextKey    func() x509sim.KeyID
	// validated[account+"\x00"+domain] = last successful validation day
	validated map[string]simtime.Day
}

// Config wires a CA's dependencies.
type Config struct {
	Profile Profile
	// Validator checks domain control; nil means issuance always validates
	// (used by harnesses that model control externally).
	Validator Validator
	// Logs receives precertificate and final-certificate submissions; nil
	// disables CT submission.
	Logs *ctlog.Collection
	// Authority receives revocations; nil creates a private one.
	Authority *crl.Authority
	// NewKey mints subject keys; required.
	NewKey func() x509sim.KeyID
}

// New creates a CA.
func New(cfg Config) *CA {
	if cfg.NewKey == nil {
		panic("ca: Config.NewKey is required")
	}
	a := cfg.Authority
	if a == nil {
		a = crl.NewAuthority(cfg.Profile.Name)
	}
	return &CA{
		profile:   cfg.Profile,
		validator: cfg.Validator,
		logs:      cfg.Logs,
		authority: a,
		nextKey:   cfg.NewKey,
		validated: make(map[string]simtime.Day),
	}
}

// Profile returns the CA's profile.
func (c *CA) Profile() Profile { return c.profile }

// Authority returns the CA's revocation authority.
func (c *CA) Authority() *crl.Authority { return c.authority }

// Request describes one issuance.
type Request struct {
	Account string   // subscriber account performing the request
	Names   []string // SANs
	// Key optionally pins the subject key (0 mints a fresh key). Managed
	// TLS providers reuse one key across cruise-liner reissues.
	Key x509sim.KeyID
	// Lifetime overrides the profile lifetime in days (0 = profile default);
	// always clamped to the era maximum.
	Lifetime int
	// SkipValidation marks renewal-automation paths that rely on domain
	// validation reuse only when the reuse window has expired this forces an
	// error rather than silent re-validation.
	SkipValidation bool
}

// Issue validates control of every requested name (honouring the
// validation-reuse window) and issues the certificate at the given day,
// submitting a precertificate and the final certificate to CT.
func (c *CA) Issue(req Request, day simtime.Day) (*x509sim.Certificate, error) {
	if len(req.Names) == 0 {
		return nil, ErrNoNames
	}
	if day < c.profile.ActiveFrom {
		return nil, fmt.Errorf("%w: %s starts %s", ErrNotActive, c.profile.Name, c.profile.ActiveFrom)
	}
	for _, name := range req.Names {
		if err := c.validateName(name, req, day); err != nil {
			return nil, err
		}
	}
	lifetime := c.profile.Lifetime(day)
	if req.Lifetime > 0 {
		lifetime = req.Lifetime
		if maxDays := MaxLifetime(day); lifetime > maxDays {
			lifetime = maxDays
		}
	}
	c.mu.Lock()
	c.nextSerial++
	serial := c.nextSerial
	key := req.Key
	c.mu.Unlock()
	if key == 0 {
		key = c.nextKey()
	}
	cert, err := x509sim.New(serial, c.profile.ID, key, req.Names, day, day+simtime.Day(lifetime)-1)
	if err != nil {
		return nil, err
	}
	if c.logs != nil {
		pre := cert.Clone()
		pre.Precert = true
		c.logs.Submit(pre, day)
		final := cert.Clone()
		final.SCTCount = uint8(min(len(c.logs.Logs()), 3))
		c.logs.Submit(final, day)
	}
	return cert, nil
}

func (c *CA) validateName(name string, req Request, day simtime.Day) error {
	// Wildcard SANs validate control of the base domain.
	base := name
	if len(base) > 2 && base[0] == '*' && base[1] == '.' {
		base = base[2:]
	}
	key := req.Account + "\x00" + base
	c.mu.Lock()
	last, ok := c.validated[key]
	c.mu.Unlock()
	if ok && day-last <= ReuseWindow {
		return nil // domain validation reuse
	}
	if req.SkipValidation {
		return fmt.Errorf("%w: reuse window expired for %q", ErrValidation, base)
	}
	if c.validator != nil {
		if err := c.validator.ValidateControl(base, req.Account, day); err != nil {
			return fmt.Errorf("%w: %q: %v", ErrValidation, base, err)
		}
	}
	c.mu.Lock()
	c.validated[key] = day
	c.mu.Unlock()
	return nil
}

// Revoke publishes a revocation for a certificate this CA issued. Reason
// keyCompromise is downgraded to unspecified before the profile's reporting
// start day — reproducing Let's Encrypt only publishing key compromise from
// July 2022 (Figure 4).
func (c *CA) Revoke(cert *x509sim.Certificate, day simtime.Day, reason crl.Reason) {
	if reason == crl.KeyCompromise &&
		c.profile.ReportsKeyCompromise != simtime.NoDay &&
		day < c.profile.ReportsKeyCompromise {
		reason = crl.Unspecified
	}
	c.authority.Revoke(cert.Issuer, cert.Serial, day, reason)
}
