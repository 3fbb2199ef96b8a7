package experiments

import (
	"fmt"

	"stalecert/internal/core"
	"stalecert/internal/crl"
	"stalecert/internal/report"
	"stalecert/internal/revcheck"
	"stalecert/internal/x509sim"
)

// This file implements the discussion-section analyses (§2.4, §7.2) that the
// paper argues qualitatively; the reproduction quantifies them over the
// simulated population.

// crlCheckers builds a revocation checker over every simulated CA.
func (r *Results) crlCheckers() *revcheck.CRLChecker {
	auths := make(map[x509sim.IssuerID]*crl.Authority, len(r.World.CAs))
	for id, c := range r.World.CAs {
		auths[id] = c.Authority()
	}
	return &revcheck.CRLChecker{Authorities: auths}
}

// RevocationEffectiveness evaluates every TLS-client profile against the
// revoked stale-certificate population, with working revocation
// infrastructure and under an on-path interceptor — §2.4's argument that
// revocation is absent or circumventable, in numbers.
func (r *Results) RevocationEffectiveness() *report.Table {
	var certs []*x509sim.Certificate
	for _, s := range r.RevokedAll {
		certs = append(certs, s.Cert)
	}
	now := r.World.Today()
	rows := revcheck.MeasureEffectiveness(certs, now, r.crlCheckers())

	t := &report.Table{
		Title: "Extension: revocation effectiveness against revoked stale certificates",
		Columns: []string{"Client profile", "Checks?", "Fail mode",
			"Accepted (infra up)", "Accepted (interception)", "Of"},
	}
	for _, row := range rows {
		mode := "-"
		if row.Profile.ChecksRevocation {
			if row.Profile.FailMode == revcheck.HardFail {
				mode = "hard-fail"
			} else {
				mode = "soft-fail"
			}
		}
		t.AddRow(row.Profile.Name, fmt.Sprint(row.Profile.ChecksRevocation), mode,
			row.AcceptedDirect, row.AcceptedIntercepted, row.Total)
	}
	return t
}

// MitigationRow quantifies one §7.2 mitigation against the measured
// third-party staleness.
type MitigationRow struct {
	Name string
	// StaleCertsBefore/After and staleness-day totals under the mitigation.
	StaleCertsBefore int
	StaleCertsAfter  int
	StaleDaysBefore  int
	StaleDaysAfter   int
	Note             string
}

// Mitigations quantifies the paper's §7.2 candidates over the detected
// populations:
//
//   - Keyless SSL / keyless CDNs: the provider never holds customer keys, so
//     managed-TLS departures stop granting third-party key access entirely.
//   - CRLite-style local filters: revocation becomes interception-proof; the
//     revoked stale population is neutralised for clients that deploy it
//     (quantified by filter size vs explicit CRL bytes).
//   - DANE-style TTL binding: the name-to-key cache lives hours, not months;
//     staleness windows collapse to the TTL.
func (r *Results) Mitigations(daneTTLDays int) []MitigationRow {
	if daneTTLDays <= 0 {
		daneTTLDays = 1
	}
	var rows []MitigationRow

	// Keyless SSL: managed-TLS staleness disappears.
	managedDays := 0
	for _, s := range r.Managed {
		managedDays += s.StalenessDays()
	}
	rows = append(rows, MitigationRow{
		Name:             "Keyless SSL (managed TLS)",
		StaleCertsBefore: len(r.Managed),
		StaleCertsAfter:  0,
		StaleDaysBefore:  managedDays,
		StaleDaysAfter:   0,
		Note:             "provider never holds the key; departure leaves nothing behind",
	})

	// CRLite: revoked stale certs stop being usable for any deploying client.
	revDays := 0
	for _, s := range r.RevokedAll {
		revDays += s.StalenessDays()
	}
	// A CRL revokes an (issuer, serial), not a body: every body sharing the
	// key of a revoked certificate is revoked with it.
	revokedSet := make(map[x509sim.DedupKey]bool, len(r.RevokedAll))
	for _, s := range r.RevokedAll {
		revokedSet[s.Cert.DedupKey()] = true
	}
	filter, err := revcheck.BuildCRLiteFilter(r.Corpus.Certs(), revokedSet)
	crliteRow := MitigationRow{
		Name:             "CRLite-style filter (revoked)",
		StaleCertsBefore: len(r.RevokedAll),
		StaleDaysBefore:  revDays,
	}
	if err != nil {
		// No filter, no mitigation: the revoked population stays stale.
		crliteRow.StaleCertsAfter, crliteRow.StaleDaysAfter = len(r.RevokedAll), revDays
		crliteRow.Note = "filter build failed: " + err.Error()
	} else {
		explicit := len(r.RevokedAll) * 10 // issuer(2)+serial(8) per revocation
		crliteRow.Note = fmt.Sprintf("local filter: %d levels, %dB vs %dB explicit list; immune to traffic blocking",
			filter.NumLevels(), filter.SizeBytes(), explicit)
	}
	rows = append(rows, crliteRow)

	// DANE: every third-party staleness window collapses to the record TTL.
	var pooled []core.StaleCert
	pooled = append(pooled, r.KeyComp...)
	pooled = append(pooled, r.RegChange...)
	pooled = append(pooled, r.Managed...)
	before, after := 0, 0
	for _, s := range pooled {
		d := s.StalenessDays()
		before += d
		if d > daneTTLDays {
			d = daneTTLDays
		}
		after += d
	}
	rows = append(rows, MitigationRow{
		Name:             fmt.Sprintf("DANE-style binding (TTL %dd)", daneTTLDays),
		StaleCertsBefore: len(pooled),
		StaleCertsAfter:  len(pooled),
		StaleDaysBefore:  before,
		StaleDaysAfter:   after,
		Note:             "name-to-key cache expires with the DNS record, not the certificate",
	})
	return rows
}

// MitigationsTable renders Mitigations.
func (r *Results) MitigationsTable(daneTTLDays int) *report.Table {
	t := &report.Table{
		Title: "Extension: §7.2 mitigations quantified",
		Columns: []string{"Mitigation", "Stale certs", "After", "Staleness days",
			"After", "Reduction %", "Note"},
	}
	for _, row := range r.Mitigations(daneTTLDays) {
		red := 0.0
		if row.StaleDaysBefore > 0 {
			red = 100 * float64(row.StaleDaysBefore-row.StaleDaysAfter) / float64(row.StaleDaysBefore)
		}
		t.AddRow(row.Name, row.StaleCertsBefore, row.StaleCertsAfter,
			row.StaleDaysBefore, row.StaleDaysAfter, red, row.Note)
	}
	return t
}
