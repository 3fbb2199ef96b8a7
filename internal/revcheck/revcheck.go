// Package revcheck models TLS-client revocation policy (§2.4): browser
// profiles (Chrome and Edge skip subscriber revocation entirely; Firefox and
// Safari check but soft-fail; curl-style clients don't check), an on-path
// interceptor that blackholes revocation traffic, and the resulting
// effectiveness measurement — why the paper concludes revocation provides
// little recourse against stale certificates. Status lookups consult the
// simulated CAs' CRLs directly; the wire protocol is out of scope.
package revcheck

import (
	"errors"
	"fmt"

	"stalecert/internal/crl"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

// Status is a revocation-lookup outcome.
type Status uint8

// Lookup outcomes.
const (
	StatusGood Status = iota
	StatusRevoked
	StatusUnavailable // infrastructure unreachable / blocked
)

// Checker answers revocation queries for certificates.
type Checker interface {
	Check(cert *x509sim.Certificate, now simtime.Day) (Status, crl.Reason, error)
}

// CRLChecker consults per-issuer authorities, as a client that downloaded
// fresh CRLs would.
type CRLChecker struct {
	// Authorities maps issuer IDs to their revocation authority.
	Authorities map[x509sim.IssuerID]*crl.Authority
}

// Check implements Checker.
func (c *CRLChecker) Check(cert *x509sim.Certificate, now simtime.Day) (Status, crl.Reason, error) {
	a, ok := c.Authorities[cert.Issuer]
	if !ok {
		return StatusUnavailable, 0, fmt.Errorf("revcheck: no CRL for issuer %d", cert.Issuer)
	}
	if e, revoked := a.IsRevoked(cert.DedupKey()); revoked && e.RevokedAt <= now {
		return StatusRevoked, e.Reason, nil
	}
	return StatusGood, 0, nil
}

// ErrBlocked marks revocation traffic dropped by an on-path attacker.
var ErrBlocked = errors.New("revcheck: revocation traffic blocked")

// Intercepted is the checker a client sees behind an on-path attacker who
// drops all revocation traffic — the paper's TLS-interception threat model,
// where soft-fail policies are defeated by simply blackholing status fetches.
func Intercepted() Checker { return blackholed{} }

// blackholed is a checker whose every lookup is dropped on the path.
type blackholed struct{}

// Check implements Checker.
func (blackholed) Check(*x509sim.Certificate, simtime.Day) (Status, crl.Reason, error) {
	return StatusUnavailable, 0, ErrBlocked
}

// FailMode is what a client does when revocation status is unavailable.
type FailMode uint8

// Failure modes.
const (
	SoftFail FailMode = iota // proceed when status is unavailable
	HardFail                 // abort when status is unavailable
)

// Profile is a TLS client's revocation posture.
type Profile struct {
	Name string
	// ChecksRevocation is false for clients that never query status
	// (Chrome and Edge for subscriber certs; most non-browser clients).
	ChecksRevocation bool
	FailMode         FailMode
}

// The paper's client landscape.
var (
	ProfileChrome  = Profile{Name: "Chrome", ChecksRevocation: false}
	ProfileEdge    = Profile{Name: "Edge", ChecksRevocation: false}
	ProfileFirefox = Profile{Name: "Firefox", ChecksRevocation: true, FailMode: SoftFail}
	ProfileSafari  = Profile{Name: "Safari", ChecksRevocation: true, FailMode: SoftFail}
	ProfileCurl    = Profile{Name: "curl", ChecksRevocation: false}
	ProfileStrict  = Profile{Name: "hard-fail", ChecksRevocation: true, FailMode: HardFail}
)

// Profiles lists the built-in client profiles.
func Profiles() []Profile {
	return []Profile{ProfileChrome, ProfileEdge, ProfileFirefox, ProfileSafari, ProfileCurl, ProfileStrict}
}

// Evaluate runs a profile's revocation logic for a certificate and reports
// whether the client accepts it.
func (p Profile) Evaluate(cert *x509sim.Certificate, now simtime.Day, checker Checker) bool {
	if !p.ChecksRevocation {
		return true
	}
	status, _, err := checker.Check(cert, now)
	if err != nil || status == StatusUnavailable {
		return p.FailMode == SoftFail
	}
	return status != StatusRevoked
}

// EffectivenessRow measures one profile's protection against a revoked
// stale-certificate population.
type EffectivenessRow struct {
	Profile Profile
	// AcceptedDirect is how many revoked certs the client accepts with
	// working revocation infrastructure.
	AcceptedDirect int
	// AcceptedIntercepted is how many it accepts when an on-path attacker
	// blocks revocation traffic (the scenario that matters for stale-cert
	// abuse).
	AcceptedIntercepted int
	Total               int
}

// MeasureEffectiveness evaluates every profile against a set of revoked
// certificates, with and without an interceptor, reproducing the paper's
// argument that revocation is "absent or easily circumvented".
func MeasureEffectiveness(certs []*x509sim.Certificate, now simtime.Day, checker Checker) []EffectivenessRow {
	blocked := Intercepted()
	rows := make([]EffectivenessRow, 0, len(Profiles()))
	for _, p := range Profiles() {
		row := EffectivenessRow{Profile: p, Total: len(certs)}
		for _, cert := range certs {
			if p.Evaluate(cert, now, checker) {
				row.AcceptedDirect++
			}
			if p.Evaluate(cert, now, blocked) {
				row.AcceptedIntercepted++
			}
		}
		rows = append(rows, row)
	}
	return rows
}
