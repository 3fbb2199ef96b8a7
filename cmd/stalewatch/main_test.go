package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"stalecert/internal/core"
	"stalecert/internal/crl"
	"stalecert/internal/dnssim"
	"stalecert/internal/monitor"
	"stalecert/internal/simtime"
	"stalecert/internal/whois"
	"stalecert/internal/x509sim"
)

// TestAlertLines runs each row as a round does — roundDomains over the
// certificates, core.DomainStaleness per domain, alertLines over its verdicts
// — and requires the alerts to be the row's kinds and, independently, the
// batch detectors' verdicts for certificates still valid on now.
func TestAlertLines(t *testing.T) {
	isManaged := func(c *x509sim.Certificate) bool { return monitor.HasProviderMarker(c, monitor.MarkerSuffix) }
	cert := func(serial uint64, nb, na simtime.Day, names ...string) *x509sim.Certificate {
		c, err := x509sim.New(x509sim.SerialNumber(serial), 1, x509sim.KeyID(serial), names, nb, na)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	revoked := func(serial uint64, day simtime.Day) []crl.Entry {
		return []crl.Entry{{Issuer: 1, Serial: x509sim.SerialNumber(serial), RevokedAt: day, Reason: crl.KeyCompromise}}
	}
	resold := func(day simtime.Day) []whois.ReRegistration {
		return []whois.ReRegistration{{Domain: "stale.com", NewCreation: day}}
	}
	const now = 300
	for _, row := range []struct {
		name  string
		cert  *x509sim.Certificate
		ev    core.DomainEvidence
		watch string   // -domains
		want  []string // "kind domain event_day"
	}{
		{name: "revoked inside validity", cert: cert(1, 100, 460, "stale.com"),
			ev: core.DomainEvidence{Revocations: revoked(1, 150)}, want: []string{"revoked-but-valid stale.com 2013-05-31"}},
		{name: "re-registered inside validity", cert: cert(2, 100, 460, "stale.com", "www.stale.com"),
			ev: core.DomainEvidence{ReRegistrations: resold(200)}, want: []string{"registrant-change stale.com 2013-07-20"}},
		{name: "delegation lost while a managed certificate is valid", cert: cert(3, 100, 460, "sni7."+monitor.MarkerSuffix, "stale.com"),
			ev:   core.DomainEvidence{Departures: []dnssim.Departure{{Domain: "stale.com", LastSeen: now - 1, FirstGone: now}}},
			want: []string{"managed-tls-departure stale.com 2013-10-28"}},
		{name: "a verdict on an expired certificate is not an alert", cert: cert(4, 100, 250, "stale.com"),
			ev: core.DomainEvidence{Revocations: revoked(4, 150), ReRegistrations: resold(200)}},
		{name: "re-registered on notAfter", cert: cert(5, 100, now, "stale.com"),
			ev: core.DomainEvidence{ReRegistrations: resold(now)}},
		{name: "re-registered after notAfter", cert: cert(6, 100, now, "stale.com"),
			ev: core.DomainEvidence{ReRegistrations: resold(now + 5)}},
		{name: "revoked before notBefore", cert: cert(7, 100, 460, "stale.com"),
			ev: core.DomainEvidence{Revocations: revoked(7, 90)}},
		{name: "revoked after notAfter", cert: cert(8, 100, now, "stale.com"),
			ev: core.DomainEvidence{Revocations: revoked(8, now+1)}},
		{name: "-domains names another domain", cert: cert(9, 100, 460, "stale.com"),
			ev: core.DomainEvidence{Revocations: revoked(9, 150)}, watch: "other.com"},
		{name: "-domains names one of the certificate's two", cert: cert(10, 100, 460, "stale.com", "other.com"),
			ev: core.DomainEvidence{Revocations: revoked(10, 150)}, watch: "other.com",
			want: []string{"revoked-but-valid other.com 2013-05-31"}},
	} {
		t.Run(row.name, func(t *testing.T) {
			row.ev.RevocationCutoff, row.ev.IsManaged = simtime.NoDay, isManaged
			idx := core.NewCorpus([]*x509sim.Certificate{row.cert}, core.CorpusOptions{})
			watch := map[string]bool{}
			if row.watch != "" {
				watch[row.watch] = true
			}
			var lines []alertLine
			for _, d := range roundDomains(idx.PSL(), idx.Certs(), watch) {
				lines = append(lines, alertLines(d, core.DomainStaleness(idx, d, row.ev), now)...)
			}
			var got, gotKeys []string
			for _, l := range lines {
				got = append(got, fmt.Sprintf("%s %s %s", l.Kind, l.Domain, l.EventDay))
				gotKeys = append(gotKeys, l.Fingerprint+" "+l.EventDay)
				raw, err := json.Marshal(l)
				if err != nil || !strings.Contains(string(raw), `"event_day":"`+l.EventDay+`"`) || strings.Contains(string(raw), `"entry"`) {
					t.Fatalf("wire form %s (%v)", raw, err)
				}
				if l.Fingerprint != row.cert.Fingerprint().Hex() || l.Detail == "" || l.NotAfter != row.cert.NotAfter.String() {
					t.Fatalf("alert %+v does not describe %v", l, row.cert)
				}
			}
			if !reflect.DeepEqual(got, row.want) {
				t.Fatalf("alerts = %q, want %q", got, row.want)
			}

			// The batch detectors' verdicts for the same corpus and events,
			// still valid on now, once per watched domain of the certificate.
			batch, _ := core.DetectRevoked(idx, row.ev.Revocations, simtime.NoDay)
			batch = append(batch, core.DetectRegistrantChange(idx, row.ev.ReRegistrations)...)
			batch = append(batch, core.DetectManagedTLSDeparture(idx, row.ev.Departures, isManaged)...)
			var wantKeys []string
			for _, sc := range batch {
				for _, d := range roundDomains(idx.PSL(), []*x509sim.Certificate{sc.Cert}, watch) {
					if sc.Cert.ValidOn(now) && (sc.Domain == "" || sc.Domain == d) {
						wantKeys = append(wantKeys, sc.Cert.Fingerprint().Hex()+" "+sc.EventDay.String())
					}
				}
			}
			sort.Strings(gotKeys)
			sort.Strings(wantKeys)
			if !reflect.DeepEqual(gotKeys, wantKeys) {
				t.Fatalf("alerts %q, batch detectors %q", gotKeys, wantKeys)
			}
		})
	}
}
