// Package stalecert reproduces "Stale TLS Certificates: Investigating
// Precarious Third-Party Access to Valid TLS Keys" (IMC 2023): a measurement
// pipeline that detects certificates which remain valid after the real-world
// facts they attest to have changed, leaving a third party in control of a
// working TLS key for a domain it no longer operates.
//
// The package is a facade over the full system:
//
//   - a simulated internet (internal/worldsim) producing the paper's four
//     datasets — Certificate Transparency, daily CRLs, bulk WHOIS, and daily
//     active-DNS scans — through real substrates: an RFC 6962 CT log with an
//     HTTP API, RFC 5280-style CRLs over HTTP, a port-43 WHOIS server, and an
//     RFC 1035 DNS server over UDP;
//   - the three third-party stale-certificate detectors (internal/core):
//     key-compromise revocations joined against CT, domain registrant changes
//     from registry creation dates, and managed-TLS departures from daily DNS
//     diffs;
//   - the certificate-lifetime reduction analysis (§6) estimating how far
//     shorter maximum lifetimes shrink the stale population.
//
// # Quick start
//
//	s, _ := stalecert.ScenarioFor("quick")
//	results := stalecert.Run(s)
//	for _, row := range results.Table4Rows() {
//		fmt.Printf("%-26s %6d certs (%.1f/day)\n", row.Method, row.Certs, row.CertsPerDay())
//	}
//	h := results.Headline()
//	fmt.Printf("90-day cap cuts staleness-days by %.0f%%\n", h.OverallDayReductionPct)
//
// Users with their own certificate, revocation, WHOIS or DNS data can skip
// the simulator and drive the detectors directly via NewCorpus,
// DetectRevoked, DetectRegistrantChange and DetectManagedTLSDeparture.
package stalecert

import (
	"stalecert/internal/core"
	"stalecert/internal/crl"
	"stalecert/internal/dnssim"
	"stalecert/internal/experiments"
	"stalecert/internal/simtime"
	"stalecert/internal/whois"
	"stalecert/internal/worldsim"
	"stalecert/internal/x509sim"
)

// Scenario parameterises a world simulation; see worldsim.Scenario for every
// knob. Build one with ScenarioFor and adjust fields.
type Scenario = worldsim.Scenario

// World is a simulated internet mid- or post-run.
type World = worldsim.World

// Results bundles a full pipeline run: corpus, per-method detections,
// detection windows, and every table/figure regenerator.
type Results = experiments.Results

// Certificate is the compact certificate model shared by every pipeline.
type Certificate = x509sim.Certificate

// StaleCert is one detected stale certificate.
type StaleCert = core.StaleCert

// Method identifies a detection pipeline (Table 4 rows).
type Method = core.Method

// Detection methods.
const (
	MethodRevocation       = core.MethodRevocation
	MethodKeyCompromise    = core.MethodKeyCompromise
	MethodRegistrantChange = core.MethodRegistrantChange
	MethodManagedTLS       = core.MethodManagedTLS
)

// Corpus is the deduplicated, e2LD-indexed CT corpus.
type Corpus = core.Corpus

// CorpusOptions tunes corpus construction.
type CorpusOptions = core.CorpusOptions

// RevocationEntry is one CRL row (issuer key, serial, time, reason).
type RevocationEntry = crl.Entry

// ReRegistration is a WHOIS-visible registrant change.
type ReRegistration = whois.ReRegistration

// Departure is a managed-TLS delegation disappearance between daily scans.
type Departure = dnssim.Departure

// CapResult is the outcome of one maximum-lifetime cap simulation.
type CapResult = core.CapResult

// Day is the day-granular simulation clock (days since 2013-01-01 UTC).
type Day = simtime.Day

// ScenarioFor returns the scenario for a scale: "full" is the paper's
// 2013-03 through 2023-05 (a run takes tens of seconds), "test" and "quick"
// keep the same dynamics over fewer domains and years.
func ScenarioFor(scale string) (Scenario, error) { return worldsim.ScenarioFor(scale) }

// Simulate runs a world to completion and returns it with all datasets
// populated.
func Simulate(s Scenario) *World {
	w := worldsim.NewWorld(s)
	w.Run()
	return w
}

// Detect runs the three measurement pipelines over a simulated world.
func Detect(w *World) *Results { return experiments.Detect(w) }

// Run simulates a world and runs every detection pipeline.
func Run(s Scenario) *Results { return experiments.Run(s) }

// NewCorpus builds a detector-ready corpus from certificates (applies
// fingerprint dedup and the paper's >3K-certs-per-FQDN anomaly filter).
func NewCorpus(certs []*Certificate, opts CorpusOptions) *Corpus {
	return core.NewCorpus(certs, opts)
}

// DetectRevoked joins CRL entries against the corpus with the paper's §4.1
// outlier filters; pass cutoff simtime.NoDay to disable the date filter.
func DetectRevoked(corpus *Corpus, entries []RevocationEntry, cutoff Day) ([]StaleCert, core.RevocationStats) {
	return core.DetectRevoked(corpus, entries, cutoff)
}

// SplitKeyCompromise extracts the key-compromise subset of revocation-stale
// certificates.
func SplitKeyCompromise(revoked []StaleCert) []StaleCert {
	return core.SplitKeyCompromise(revoked)
}

// DetectRegistrantChange finds certificates whose validity spans a public
// re-registration of a domain they name.
func DetectRegistrantChange(corpus *Corpus, events []ReRegistration) []StaleCert {
	return core.DetectRegistrantChange(corpus, events)
}

// DetectManagedTLSDeparture finds provider-managed certificates still valid
// when the customer's delegation to the provider disappears.
func DetectManagedTLSDeparture(corpus *Corpus, departures []Departure, isManaged func(*Certificate) bool) []StaleCert {
	return core.DetectManagedTLSDeparture(corpus, departures, isManaged)
}

// SimulateCap estimates the effect of one maximum-lifetime cap on a stale
// population (§6 / Figure 9).
func SimulateCap(stale []StaleCert, capDays int) CapResult {
	return core.SimulateCap(stale, capDays)
}

// SimulateCaps applies several caps; StandardCaps holds the paper's
// 45/90/215/398-day set.
func SimulateCaps(stale []StaleCert, caps []int) []CapResult {
	return core.SimulateCaps(stale, caps)
}

// StandardCaps are the lifetimes the paper simulates.
var StandardCaps = core.StandardCaps
