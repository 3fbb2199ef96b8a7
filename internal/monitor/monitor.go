// Package monitor reads the two managed-TLS signals the live evidence
// gatherer (internal/evidence) and the benchmark's oracle share: whether a
// certificate carries a provider marker SAN, and whether a domain's DNS still
// delegates to the provider. The verdicts built on them are internal/core's.
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

// HasProviderMarker reports whether the certificate carries a provider
// marker SAN (an sni*.<suffix> name), identifying it as provider-managed.
func HasProviderMarker(cert *x509sim.Certificate, suffix string) bool {
	for _, n := range cert.Names {
		if dnsname.IsSubdomain(n, suffix) && strings.HasPrefix(n, "sni") && n != suffix {
			return true
		}
	}
	return false
}

// IsCloudflareRecord matches the delegation records of the managed-TLS
// provider the daemons watch: an NS under ns.cloudflare.com or a CNAME under
// cdn.cloudflare.com.
func IsCloudflareRecord(r dnssim.Record) bool {
	switch r.Type {
	case dnssim.TypeNS:
		return dnsname.IsSubdomain(r.Data, "ns.cloudflare.com")
	case dnssim.TypeCNAME:
		return dnsname.IsSubdomain(r.Data, "cdn.cloudflare.com")
	}
	return false
}

// ProviderDelegated reports whether the domain's apex NS or www CNAME points
// at the provider. The two questions are asked in turn and the second is
// skipped when the first already answers.
func ProviderDelegated(ctx context.Context, resolver *dnssim.Resolver, isProvider func(dnssim.Record) bool, domain string) (bool, error) {
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
			if isProvider(r) {
				return true, nil
			}
		}
	}
	return false, nil
}
