// Package worldsim is the synthetic internet: a seeded discrete-event
// simulation of domain registrations, HTTPS adoption, CA issuance, CDN
// enrolment and departure, key compromise, and revocation, driving every
// substrate (registry, WHOIS, DNS, CT, CRL) so the paper's measurement
// pipelines can run end to end at laptop scale.
//
// Calibration follows the paper's observed dynamics: Let's Encrypt's
// introduction multiplies HTTPS adoption; Cloudflare packs customers into
// COMODO cruise-liner certificates until mid-2019 and then switches to its
// own per-domain CA; GoDaddy's November 2021 breach mass-revokes for key
// compromise; Let's Encrypt only begins publishing keyCompromise reasons in
// July 2022; browser policy caps lifetimes at 825 days from 2018 and 398
// days from September 2020.
package worldsim

import (
	"fmt"
	"math"

	"stalecert/internal/simtime"
)

// Landmark days used across the scenario.
var (
	// DefaultStart matches the paper's CT range start.
	DefaultStart = simtime.MustParse("2013-03-01")
	// DefaultEnd matches the paper's CT collection end.
	DefaultEnd = simtime.MustParse("2023-05-12")
	// LetsEncryptLaunch is when automated free issuance arrives.
	LetsEncryptLaunch = simtime.MustParse("2015-12-01")
	// CloudflarePerDomainFrom is when cruise-liners give way to per-domain
	// certificates (mid-2019, §5.2).
	CloudflarePerDomainFrom = simtime.MustParse("2019-06-01")
	// GoDaddyBreachStart/End bound the November 2021 mass key-compromise
	// revocations (Figure 4).
	GoDaddyBreachStart = simtime.MustParse("2021-11-17")
	GoDaddyBreachEnd   = simtime.MustParse("2021-12-20")
	// WHOISWindow bounds the bulk WHOIS dataset (Table 3).
	WHOISWindowStart = simtime.MustParse("2016-01-01")
	WHOISWindowEnd   = simtime.MustParse("2021-07-08")
	// ADNSWindow bounds the daily active-DNS scans (Table 3).
	ADNSWindowStart = simtime.MustParse("2022-08-01")
	ADNSWindowEnd   = simtime.MustParse("2022-10-30")
	// CRLWindow bounds daily CRL collection (Table 3).
	CRLWindowStart = simtime.MustParse("2022-11-01")
	CRLWindowEnd   = simtime.MustParse("2023-05-05")
)

// Scenario parameterises a simulation run. The zero value is not useful;
// start from Default() and tweak.
type Scenario struct {
	Seed  int64
	Start simtime.Day
	End   simtime.Day

	// BaseDailyRegistrations is the expected new registrations per day at
	// Start; AnnualRegistrationGrowth compounds it per year.
	BaseDailyRegistrations   float64
	AnnualRegistrationGrowth float64

	// CDNPeak bounds the fraction of HTTPS domains choosing managed TLS via
	// the CDN, which grows from cdnBase over time (§7.1).
	CDNPeak float64

	// DomainRenewProb is the chance a registrant renews at expiry.
	DomainRenewProb float64
	// ReRegistrationProb is the chance a released domain is re-registered
	// by a new owner.
	ReRegistrationProb float64

	// CompromiseProbLong/Short are per-certificate key-compromise
	// probabilities for long-lived (>180d) and short-lived certificates.
	CompromiseProbLong  float64
	CompromiseProbShort float64

	// GoDaddyBreach enables the November 2021 mass revocation.
	GoDaddyBreach bool

	// Collection windows (zero spans disable a collection).
	WHOISWindow simtime.Span
	ADNSWindow  simtime.Span
	CRLWindow   simtime.Span
}

// Calibration that no scale or test varies.
const (
	// httpsBase is pre-Let's-Encrypt adoption probability for a new domain;
	// httpsPeak is the asymptote approached after automation arrives.
	httpsBase = 0.15
	httpsPeak = 0.90
	// cdnBase is the starting CDN share (see CDNPeak); platformShare is the
	// cPanel-style hosting share.
	cdnBase       = 0.06
	platformShare = 0.12
	// dropCatchProb is the sub-probability that a re-registration happens
	// immediately at release (drop-catch services); otherwise it comes up
	// to reRegistrationMaxDelay days after release.
	dropCatchProb          = 0.45
	reRegistrationMaxDelay = 300
	// certManualRenewProb is the chance a manually-managed certificate is
	// renewed at expiry (automated CAs always renew while the domain is
	// held and validation reuse allows); renewBeforeDays is the automation
	// renewal window before expiry.
	certManualRenewProb = 0.80
	renewBeforeDays     = 30
	// Compromise is discovered compromiseMeanDelay days (exponential,
	// capped at compromiseMaxDelay) after issuance.
	compromiseMeanDelay = 18
	compromiseMaxDelay  = 600
	// otherRevocationProb is the chance a certificate is revoked for a
	// non-compromise reason (superseded, cessation, ...) at a uniform point
	// of its life.
	otherRevocationProb = 0.06
	// breachShare is the fraction of then-valid GoDaddy certificates the
	// breach revokes.
	breachShare = 0.50
	// cdnAnnualChurn is the fraction of CDN customers departing per year.
	cdnAnnualChurn = 0.22
	// cruiseBoatSize caps customers per cruise-liner certificate.
	cruiseBoatSize = 30
)

// Default returns the full-scale default scenario.
func Default() Scenario {
	return Scenario{
		Seed:                     1,
		Start:                    DefaultStart,
		End:                      DefaultEnd,
		BaseDailyRegistrations:   8,
		AnnualRegistrationGrowth: 1.13,
		CDNPeak:                  0.32,
		DomainRenewProb:          0.65,
		ReRegistrationProb:       0.60,
		CompromiseProbLong:       0.003,
		CompromiseProbShort:      0.0006,
		GoDaddyBreach:            true,
		WHOISWindow:              simtime.Span{Start: WHOISWindowStart, End: WHOISWindowEnd + 1},
		ADNSWindow:               simtime.Span{Start: ADNSWindowStart, End: ADNSWindowEnd + 1},
		CRLWindow:                simtime.Span{Start: CRLWindowStart, End: CRLWindowEnd + 1},
	}
}

// Quick returns a small scenario for tests and benchmarks: same dynamics,
// fewer domains.
func Quick() Scenario {
	s := Default()
	s.BaseDailyRegistrations = 1.2
	s.AnnualRegistrationGrowth = 1.10
	return s
}

// ScenarioFor returns the scenario for a named scale. "full" is Default.
// "test" starts in 2016 at a quarter of the registrations, so Let's
// Encrypt's growth era, the GoDaddy breach and all three collection windows
// are inside the run. "quick" is Quick from 2019.
func ScenarioFor(scale string) (Scenario, error) {
	switch scale {
	case "quick":
		s := Quick()
		s.Start = simtime.MustParse("2019-01-01")
		return s, nil
	case "test":
		s := Default()
		s.Start = simtime.MustParse("2016-01-01")
		s.BaseDailyRegistrations = 2
		s.AnnualRegistrationGrowth = 1.12
		return s, nil
	case "full":
		return Default(), nil
	}
	return Scenario{}, fmt.Errorf("unknown scale %q (want quick, test, or full)", scale)
}

// yearsSince returns fractional years between two days.
func yearsSince(from, to simtime.Day) float64 {
	return float64(to-from) / 365.25
}

// registrationRate is the expected new registrations on a day.
func (s Scenario) registrationRate(day simtime.Day) float64 {
	rate := s.BaseDailyRegistrations
	growth := s.AnnualRegistrationGrowth
	if growth <= 0 {
		growth = 1
	}
	return rate * math.Pow(growth, yearsSince(s.Start, day))
}

// httpsProb is the chance a domain registered on day deploys HTTPS.
func (s Scenario) httpsProb(day simtime.Day) float64 {
	if day < LetsEncryptLaunch {
		return httpsBase
	}
	// Logistic ramp reaching ~peak by 2020.
	t := yearsSince(LetsEncryptLaunch, day)
	frac := t / 4.0
	if frac > 1 {
		frac = 1
	}
	return httpsBase + (httpsPeak-httpsBase)*frac
}

// cdnProb is the chance an HTTPS domain uses the CDN at day.
func (s Scenario) cdnProb(day simtime.Day) float64 {
	t := yearsSince(s.Start, day) / 9.0
	if t > 1 {
		t = 1
	}
	if t < 0 {
		t = 0
	}
	return cdnBase + (s.CDNPeak-cdnBase)*t
}
