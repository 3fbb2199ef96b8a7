// Package monitor owns the managed-TLS provider's identity and the two
// signals read from it (§4.3): whether a certificate carries the provider's
// marker SAN, and whether a domain's DNS still delegates to the provider. The
// batch scan (worldsim.ScanLog), the live evidence gatherer
// (internal/evidence), dnsscand -scan and the benchmark's oracle all ask
// these; the verdicts built on them are internal/core's.
package monitor

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"stalecert/internal/dnsname"
	"stalecert/internal/dnssim"
	"stalecert/internal/x509sim"
)

// The provider's names: managed certificates carry an sni<N>.MarkerSuffix
// SAN, NS delegation points at hosts under NSSuffix, and CNAME delegation at
// edge names under EdgeSuffix.
const (
	MarkerSuffix = "cloudflaressl.com"
	NSSuffix     = "ns.cloudflare.com"
	EdgeSuffix   = "cdn.cloudflare.com"
)

// HasProviderMarker reports whether the certificate carries a provider
// marker SAN (an sni*.<suffix> name), identifying it as provider-managed.
func HasProviderMarker(cert *x509sim.Certificate, suffix string) bool {
	for _, n := range cert.Names {
		// The prefix first: it turns almost every name away in a byte or two.
		if strings.HasPrefix(n, "sni") && dnsname.IsSubdomain(n, suffix) && n != suffix {
			return true
		}
	}
	return false
}

// IsCloudflareRecord matches the provider's delegation records: an NS under
// NSSuffix or a CNAME under EdgeSuffix.
func IsCloudflareRecord(r dnssim.Record) bool {
	switch r.Type {
	case dnssim.TypeNS:
		return dnsname.IsSubdomain(r.Data, NSSuffix)
	case dnssim.TypeCNAME:
		return dnsname.IsSubdomain(r.Data, EdgeSuffix)
	}
	return false
}

// ProviderDelegated reports whether the domain's apex NS or www CNAME is a
// provider record. The two questions are asked in turn and the second is
// skipped when the first already answers.
func ProviderDelegated(ctx context.Context, resolver *dnssim.Resolver, domain string) (bool, error) {
	for _, q := range []struct {
		name string
		typ  dnssim.RRType
	}{{domain, dnssim.TypeNS}, {"www." + domain, dnssim.TypeCNAME}} {
		recs, err := resolver.Query(ctx, q.name, q.typ)
		if err != nil {
			var nx *dnssim.NXDomainError
			if errors.As(err, &nx) {
				continue
			}
			return false, fmt.Errorf("dns %s %v: %w", q.name, q.typ, err)
		}
		for _, r := range recs {
			if IsCloudflareRecord(r) {
				return true, nil
			}
		}
	}
	return false, nil
}
