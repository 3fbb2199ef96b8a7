package core

import (
	"cmp"
	"slices"

	"stalecert/internal/crl"
	"stalecert/internal/dnssim"
	"stalecert/internal/obs"
	"stalecert/internal/simtime"
	"stalecert/internal/whois"
	"stalecert/internal/x509sim"
)

// Detector metrics, labelled by method slug: candidates examined, outliers
// filtered (with the filter reason), and stale certificates emitted.
func detectExamined(m Method) *obs.Counter {
	return obs.Default().Counter("detect_candidates_examined_total", "method", m.slug())
}

func detectFiltered(m Method, reason string) *obs.Counter {
	return obs.Default().Counter("detect_outliers_filtered_total", "method", m.slug(), "reason", reason)
}

func detectEmitted(m Method) *obs.Counter {
	return obs.Default().Counter("detect_stale_emitted_total", "method", m.slug())
}

// Method is a stale-certificate detection pipeline (the rows of Table 4).
type Method uint8

// Detection methods.
const (
	MethodRevocation       Method = iota // Revoked: all
	MethodKeyCompromise                  // Revoked: key compromise
	MethodRegistrantChange               // Domain registrant change
	MethodManagedTLS                     // Managed TLS departure
)

// String names the method as in Table 4.
func (m Method) String() string {
	switch m {
	case MethodRevocation:
		return "Revoked: all"
	case MethodKeyCompromise:
		return "Revoked: key compromise"
	case MethodRegistrantChange:
		return "Domain registrant change"
	case MethodManagedTLS:
		return "Managed TLS departure"
	}
	return "method?"
}

// slug is the metric-label form of the method name.
func (m Method) slug() string {
	switch m {
	case MethodRevocation:
		return "revocation"
	case MethodKeyCompromise:
		return "key_compromise"
	case MethodRegistrantChange:
		return "registrant_change"
	case MethodManagedTLS:
		return "managed_tls"
	}
	return "unknown"
}

// StaleCert is one detected stale certificate: a valid certificate whose
// subscriber information was nullified by an invalidation event on EventDay.
type StaleCert struct {
	Cert     *x509sim.Certificate
	Method   Method
	EventDay simtime.Day
	// Domain is the affected e2LD for domain-scoped events (registrant
	// change, managed TLS); empty for revocations, which affect every name.
	Domain string
	// Reason carries the revocation reason for revocation-based detections.
	Reason crl.Reason
}

// StalenessDays is the abusable window: event day through notAfter
// (inclusive), the paper's staleness period.
func (s StaleCert) StalenessDays() int {
	d := int(s.Cert.NotAfter - s.EventDay + 1)
	if d < 0 {
		return 0
	}
	return d
}

// DaysFromIssuance is how far into the certificate's life the invalidation
// event occurred (the Figure 8 survival variable).
func (s StaleCert) DaysFromIssuance() int {
	return int(s.EventDay - s.Cert.NotBefore)
}

// RevocationFilterCutoff is the paper's outlier filter: revocations before
// 2021-10-01 (13 months before CRL collection began) are discarded.
var RevocationFilterCutoff = simtime.MustParse("2021-10-01")

// The paper's three staleness rules (PAPER §1). These functions are the only
// places an event day meets a validity window to produce a verdict: the batch
// detectors below, DomainStaleness and EvidenceNeeded all call them, so the
// live and batch paths cannot drift apart at a boundary day. The two that
// return a string return "" for a verdict and otherwise the reason label the
// batch detect_outliers_filtered_total counters record.

// revocationFilter is §4.1: a revocation makes a certificate stale when it
// falls inside the validity window, ends included, and not before the
// collection cutoff (simtime.NoDay disables the cutoff).
func revocationFilter(cert *x509sim.Certificate, revokedAt, cutoff simtime.Day) string {
	switch {
	case revokedAt < cert.NotBefore:
		return "revoked_before_valid"
	case revokedAt > cert.NotAfter:
		return "revoked_after_expiry"
	case cutoff != simtime.NoDay && revokedAt < cutoff:
		return "before_cutoff"
	}
	return ""
}

// spansCreation is §4.2: notBefore < registryCreationDate < notAfter, both
// ends excluded.
func spansCreation(cert *x509sim.Certificate, creation simtime.Day) bool {
	return cert.NotBefore < creation && creation < cert.NotAfter
}

// departureFilter is §4.3: a provider-managed certificate still valid on the
// day the delegation was first seen gone.
func departureFilter(cert *x509sim.Certificate, isManaged ManagedCertPred, firstGone simtime.Day) string {
	switch {
	case !isManaged(cert):
		return "not_managed"
	case !cert.ValidOn(firstGone):
		return "not_valid"
	}
	return ""
}

// RevocationStats accounts for the §4.1 filtering steps.
type RevocationStats struct {
	TotalRevocations   int // CRL entries seen
	MatchedInCT        int // joined against the corpus
	RevokedBeforeValid int
	RevokedAfterExpiry int
	BeforeCutoff       int
	Kept               int
}

// DetectRevoked joins CRL revocations against the CT corpus and applies the
// paper's outlier filters, returning every revocation-stale certificate
// (Method MethodRevocation, with key-compromise entries additionally
// duplicated under MethodKeyCompromise by callers that need the split —
// use SplitKeyCompromise).
func DetectRevoked(idx Index, entries []crl.Entry, cutoff simtime.Day) ([]StaleCert, RevocationStats) {
	stats := RevocationStats{TotalRevocations: len(entries)}
	examined := detectExamined(MethodRevocation)
	fNotInCT := detectFiltered(MethodRevocation, "not_in_ct")
	// Where each filter reason is tallied, beside its counter.
	stat := map[string]*int{
		"revoked_before_valid": &stats.RevokedBeforeValid,
		"revoked_after_expiry": &stats.RevokedAfterExpiry,
		"before_cutoff":        &stats.BeforeCutoff,
	}
	filtered := map[string]*obs.Counter{}
	for reason := range stat {
		filtered[reason] = detectFiltered(MethodRevocation, reason)
	}
	emitted := detectEmitted(MethodRevocation)
	var out []StaleCert
	for _, e := range entries {
		examined.Inc()
		cert, ok := idx.ByKey(e.Key())
		if !ok {
			fNotInCT.Inc()
			continue // not in CT: cannot analyse (paper: cross-reference with CT)
		}
		stats.MatchedInCT++
		if reason := revocationFilter(cert, e.RevokedAt, cutoff); reason != "" {
			*stat[reason]++
			filtered[reason].Inc()
			continue
		}
		stats.Kept++
		emitted.Inc()
		out = append(out, StaleCert{
			Cert:     cert,
			Method:   MethodRevocation,
			EventDay: e.RevokedAt,
			Reason:   e.Reason,
		})
	}
	sortStale(out)
	return out, stats
}

// SplitKeyCompromise extracts the key-compromise subset of revocation-stale
// certificates, relabelled under MethodKeyCompromise.
func SplitKeyCompromise(revoked []StaleCert) []StaleCert {
	examined := detectExamined(MethodKeyCompromise)
	emitted := detectEmitted(MethodKeyCompromise)
	var out []StaleCert
	for _, s := range revoked {
		examined.Inc()
		if s.Reason == crl.KeyCompromise {
			s.Method = MethodKeyCompromise
			out = append(out, s)
			emitted.Inc()
		}
	}
	return out
}

// DetectRegistrantChange finds certificates whose validity spans a public
// re-registration: notBefore < registryCreationDate < notAfter (§4.2). The
// prior registrant keeps the keys while the new registrant owns the domain.
func DetectRegistrantChange(idx Index, events []whois.ReRegistration) []StaleCert {
	examined := detectExamined(MethodRegistrantChange)
	fOutside := detectFiltered(MethodRegistrantChange, "outside_validity")
	emitted := detectEmitted(MethodRegistrantChange)
	var out []StaleCert
	for _, ev := range events {
		for _, cert := range idx.ByE2LD(ev.Domain) {
			examined.Inc()
			if spansCreation(cert, ev.NewCreation) {
				emitted.Inc()
				out = append(out, StaleCert{
					Cert:     cert,
					Method:   MethodRegistrantChange,
					EventDay: ev.NewCreation,
					Domain:   ev.Domain,
				})
			} else {
				fOutside.Inc()
			}
		}
	}
	sortStale(out)
	return out
}

// ManagedCertPred reports whether a certificate is provider-managed (e.g.
// carries an sni*.cloudflaressl.com marker SAN).
type ManagedCertPred func(*x509sim.Certificate) bool

// DetectManagedTLSDeparture finds provider-managed certificates that are
// still valid when their customer domain's delegation to the provider
// disappears between consecutive daily scans (§4.3).
func DetectManagedTLSDeparture(idx Index, departures []dnssim.Departure, isManaged ManagedCertPred) []StaleCert {
	examined := detectExamined(MethodManagedTLS)
	filtered := map[string]*obs.Counter{
		"not_managed": detectFiltered(MethodManagedTLS, "not_managed"),
		"not_valid":   detectFiltered(MethodManagedTLS, "not_valid"),
	}
	emitted := detectEmitted(MethodManagedTLS)
	var out []StaleCert
	for _, dep := range departures {
		for _, cert := range idx.ByE2LD(dep.Domain) {
			examined.Inc()
			if reason := departureFilter(cert, isManaged, dep.FirstGone); reason != "" {
				filtered[reason].Inc()
				continue
			}
			emitted.Inc()
			out = append(out, StaleCert{
				Cert:     cert,
				Method:   MethodManagedTLS,
				EventDay: dep.FirstGone,
				Domain:   dep.Domain,
			})
		}
	}
	sortStale(out)
	return out
}

// sortStale puts detections in the canonical order. The key covers every
// field evidence contributes, so the result does not depend on the order
// evidence arrived in.
func sortStale(s []StaleCert) {
	slices.SortFunc(s, func(a, b StaleCert) int {
		return cmp.Or(
			cmp.Compare(a.EventDay, b.EventDay),
			cmp.Compare(a.Cert.Issuer, b.Cert.Issuer),
			cmp.Compare(a.Cert.Serial, b.Cert.Serial),
			cmp.Compare(a.Method, b.Method),
			cmp.Compare(a.Domain, b.Domain),
			cmp.Compare(a.Reason, b.Reason),
		)
	})
}

// Summary is one Table 4 row: distinct stale certificates, FQDNs, and e2LDs
// with average daily rates over the detection date range.
type Summary struct {
	Method Method
	Range  simtime.Span
	Certs  int
	FQDNs  int
	E2LDs  int
}

// Days returns the detection range length in days.
func (s Summary) Days() int { return s.Range.Len() }

// CertsPerDay returns the average daily stale-certificate rate.
func (s Summary) CertsPerDay() float64 { return perDay(s.Certs, s.Days()) }

// FQDNsPerDay returns the average daily stale-FQDN rate.
func (s Summary) FQDNsPerDay() float64 { return perDay(s.FQDNs, s.Days()) }

// E2LDsPerDay returns the average daily stale-e2LD rate.
func (s Summary) E2LDsPerDay() float64 { return perDay(s.E2LDs, s.Days()) }

func perDay(n, days int) float64 {
	if days == 0 {
		return 0
	}
	return float64(n) / float64(days)
}

// Summarize computes a Table 4 row over detections from one method.
// The span is [start, end) of the detection window.
func Summarize(idx Index, stale []StaleCert, method Method, window simtime.Span) Summary {
	certs := make(map[x509sim.Fingerprint]bool)
	fqdns := make(map[string]bool)
	e2lds := make(map[string]bool)
	for _, s := range stale {
		if s.Method != method {
			continue
		}
		certs[s.Cert.Fingerprint()] = true
		if s.Domain != "" {
			// Domain-scoped events: count names under the affected e2LD.
			e2lds[s.Domain] = true
			for _, n := range s.Cert.Names {
				base := trimWildcard(n)
				if e2, err := idx.PSL().ETLDPlusOne(base); err == nil && e2 == s.Domain {
					fqdns[base] = true
				}
			}
		} else {
			// Revocations: every name on the certificate is affected.
			for _, n := range s.Cert.Names {
				base := trimWildcard(n)
				fqdns[base] = true
				if e2, err := idx.PSL().ETLDPlusOne(base); err == nil {
					e2lds[e2] = true
				}
			}
		}
	}
	return Summary{Method: method, Range: window, Certs: len(certs), FQDNs: len(fqdns), E2LDs: len(e2lds)}
}

func trimWildcard(n string) string {
	if len(n) > 2 && n[0] == '*' && n[1] == '.' {
		return n[2:]
	}
	return n
}
