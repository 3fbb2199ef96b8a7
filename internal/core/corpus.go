package core

import (
	"slices"

	"stalecert/internal/psl"
	"stalecert/internal/x509sim"
)

// MaxCertsPerFQDN is the paper's anomaly filter: FQDNs carrying more than 3K
// certificates are test domains or anomalous issuance and are excluded from
// analysis (§4).
const MaxCertsPerFQDN = 3000

// Corpus is the deduplicated, indexed CT certificate corpus the detectors
// join against. Build once with NewCorpus; read-only afterwards.
type Corpus struct {
	psl   *psl.List
	certs []*x509sim.Certificate

	byKey  map[x509sim.DedupKey]*x509sim.Certificate
	byE2LD map[string][]*x509sim.Certificate

	// ExcludedFQDNs counts domains dropped by the MaxCertsPerFQDN filter.
	ExcludedFQDNs int
	// Deduped counts raw inputs removed as fingerprint duplicates.
	Deduped int
}

// CorpusOptions tunes corpus construction.
type CorpusOptions struct {
	// PSL defaults to psl.Default().
	PSL *psl.List
	// MaxPerFQDN defaults to MaxCertsPerFQDN; set negative to disable.
	MaxPerFQDN int
	// NoIndex skips the e2LD inverted index; lookups then scan linearly.
	// Exists for the ablation benchmark.
	NoIndex bool
}

// NewCorpus builds a corpus from certificates (already CT-deduplicated
// inputs are fine; fingerprint dedup is idempotent).
func NewCorpus(certs []*x509sim.Certificate, opts CorpusOptions) *Corpus {
	if opts.PSL == nil {
		opts.PSL = psl.Default()
	}
	if opts.MaxPerFQDN == 0 {
		opts.MaxPerFQDN = MaxCertsPerFQDN
	}
	c := &Corpus{
		psl:   opts.PSL,
		byKey: make(map[x509sim.DedupKey]*x509sim.Certificate, len(certs)),
	}

	// Fingerprint dedup.
	seen := make(map[x509sim.Fingerprint]bool, len(certs))
	deduped := make([]*x509sim.Certificate, 0, len(certs))
	for _, cert := range certs {
		fp := cert.Fingerprint()
		if seen[fp] {
			c.Deduped++
			continue
		}
		seen[fp] = true
		deduped = append(deduped, cert)
	}

	// FQDN anomaly filter.
	if opts.MaxPerFQDN > 0 {
		perFQDN := make(map[string]int)
		for _, cert := range deduped {
			for _, n := range cert.Names {
				perFQDN[n]++
			}
		}
		banned := make(map[string]bool)
		for n, count := range perFQDN {
			if count > opts.MaxPerFQDN {
				banned[n] = true
				c.ExcludedFQDNs++
			}
		}
		if len(banned) > 0 {
			kept := deduped[:0]
			for _, cert := range deduped {
				drop := false
				for _, n := range cert.Names {
					if banned[n] {
						drop = true
						break
					}
				}
				if !drop {
					kept = append(kept, cert)
				}
			}
			deduped = kept
		}
	}

	c.certs = deduped
	for _, cert := range deduped {
		c.byKey[cert.DedupKey()] = cert
	}
	if !opts.NoIndex {
		c.byE2LD = make(map[string][]*x509sim.Certificate)
		for _, cert := range deduped {
			for _, e2 := range c.E2LDsOf(cert) {
				c.byE2LD[e2] = append(c.byE2LD[e2], cert)
			}
		}
	}
	return c
}

// CertE2LDs returns the distinct e2LDs covered by a certificate's SANs,
// sorted. It is the one e2LD-extraction rule shared by the corpus and the
// persistent certstore index, so batch and live paths bucket names
// identically.
func CertE2LDs(list *psl.List, cert *x509sim.Certificate) []string {
	out := make([]string, 0, len(cert.Names))
	for _, n := range cert.Names {
		base := n
		if len(base) > 2 && base[0] == '*' {
			base = base[2:]
		}
		if e2, err := list.ETLDPlusOne(base); err == nil {
			out = append(out, e2)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// E2LDsOf is CertE2LDs under the corpus's PSL, for analyses.
func (c *Corpus) E2LDsOf(cert *x509sim.Certificate) []string { return CertE2LDs(c.psl, cert) }

// Len returns the corpus size after dedup and filtering.
func (c *Corpus) Len() int { return len(c.certs) }

// Certs returns the corpus contents (shared slice; do not mutate).
func (c *Corpus) Certs() []*x509sim.Certificate { return c.certs }

// ByKey resolves a CRL (issuer, serial) join key.
func (c *Corpus) ByKey(key x509sim.DedupKey) (*x509sim.Certificate, bool) {
	cert, ok := c.byKey[key]
	return cert, ok
}

// ByE2LD returns every certificate naming an FQDN under the given e2LD.
// With NoIndex it scans the corpus (the ablation baseline). The returned
// slice is a defensive copy: callers may sort or filter it in place without
// corrupting the shared index.
func (c *Corpus) ByE2LD(domain string) []*x509sim.Certificate {
	if c.byE2LD != nil {
		certs := c.byE2LD[domain]
		if len(certs) == 0 {
			return nil
		}
		out := make([]*x509sim.Certificate, len(certs))
		copy(out, certs)
		return out
	}
	var out []*x509sim.Certificate
	for _, cert := range c.certs {
		for _, e2 := range c.E2LDsOf(cert) {
			if e2 == domain {
				out = append(out, cert)
				break
			}
		}
	}
	return out
}

// PSL returns the corpus's public suffix list.
func (c *Corpus) PSL() *psl.List { return c.psl }
