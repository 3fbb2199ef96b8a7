package staleapi

import (
	"testing"

	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

// certJSON is the oracle for appendCert: c's wire form as a value that
// obs.WriteJSON encodes through encoding/json.
func certJSON(c *x509sim.Certificate) CertJSON {
	fp := c.Fingerprint()
	return CertJSON{
		Fingerprint: fp.Hex(),
		Short:       fp.String(),
		Serial:      uint64(c.Serial),
		Issuer:      uint16(c.Issuer),
		Key:         uint64(c.Key),
		Names:       append([]string(nil), c.Names...),
		NotBefore:   c.NotBefore.String(),
		NotAfter:    c.NotAfter.String(),
		Usage:       c.Usage.String(),
		Precert:     c.Precert,
		SCTCount:    c.SCTCount,
	}
}

// domainCertsJSON is the oracle for domainCertsBody.
func domainCertsJSON(domain string, certs []*x509sim.Certificate) DomainCertsResponse {
	resp := DomainCertsResponse{Domain: domain, Certs: make([]CertJSON, 0, len(certs))}
	for _, c := range certs {
		resp.Certs = append(resp.Certs, certJSON(c))
	}
	return resp
}

// FuzzCertBody: for any certificate fields and up to three arbitrary names,
// the single-certificate body and a listing holding the certificate (once, or
// twice beside an empty listing) are the bytes encoding/json writes for their
// CertJSON forms.
func FuzzCertBody(f *testing.F) {
	f.Add(uint64(1), uint16(2), uint64(3), int32(3650), int32(4048), uint8(1), false, uint8(2), uint8(2), "example.com", "www.example.com", "")
	f.Fuzz(func(t *testing.T, serial uint64, issuer uint16, key uint64, notBefore, notAfter int32,
		usage uint8, precert bool, scts uint8, nNames uint8, n1, n2, n3 string) {
		c := &x509sim.Certificate{
			Serial:    x509sim.SerialNumber(serial),
			Issuer:    x509sim.IssuerID(issuer),
			Key:       x509sim.KeyID(key),
			Names:     []string{n1, n2, n3}[:nNames%4],
			NotBefore: simtime.Day(notBefore),
			NotAfter:  simtime.Day(notAfter),
			Usage:     x509sim.KeyUsage(usage),
			Precert:   precert,
			SCTCount:  scts,
		}
		if got, want := string(certBody(c)), wantJSON(t, certJSON(c)); got != want {
			t.Fatalf("certificate body differs from encoding/json:\ngot:  %q\nwant: %q", got, want)
		}
		for _, certs := range [][]*x509sim.Certificate{nil, {c}, {c, c}} {
			if got, want := string(domainCertsBody(n1, certs)), wantJSON(t, domainCertsJSON(n1, certs)); got != want {
				t.Fatalf("listing of %d differs from encoding/json:\ngot:  %q\nwant: %q", len(certs), got, want)
			}
		}
	})
}

// FuzzStalenessBody: for any verdict fields, stalenessBody writes the bytes
// encoding/json writes for the StalenessResponse: with a nil, an empty, or a
// one- to three-entry stale list whose entries drop the omitempty domain and
// reason in turn, and with or without the degraded markers.
func FuzzStalenessBody(f *testing.F) {
	f.Add("example.com", "2023-01-01", 3, uint8(3), "ab12", "revocation", "2022-06-01", 214,
		"www.example.com", "keyCompromise", false, false, "")
	f.Fuzz(func(t *testing.T, domain, now string, indexed int, nStale uint8, fp, method, day string, days int,
		staleDomain, reason string, cached, degraded bool, age string) {
		r := StalenessResponse{Domain: domain, Now: now, CertsIndexed: indexed, Cached: cached, Degraded: degraded, EvidenceAge: age}
		if n := int(nStale % 5); n > 0 {
			r.Stale = make([]StaleJSON, 0, n-1)
			for k := 0; k < n-1; k++ {
				r.Stale = append(r.Stale, StaleJSON{Fingerprint: fp, Method: method, EventDay: day, StalenessDays: days - k,
					Domain: []string{staleDomain, "", staleDomain}[k], Reason: []string{reason, reason, ""}[k]})
			}
		}
		if got, want := string(stalenessBody(&r)), wantJSON(t, r); got != want {
			t.Fatalf("verdict body differs from encoding/json:\ngot:  %q\nwant: %q", got, want)
		}
	})
}
