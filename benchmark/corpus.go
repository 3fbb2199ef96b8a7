package main

import (
	"fmt"
	"sort"
	"strings"

	"stalecert/internal/core"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

// Corpus sizes. The fleet is seeded twice over: ctlogd's own -seed-entries
// bulk (issuer 1, serials 1..bulkEntries, no evidence attached to their
// names) and a harness-minted overlay whose names whoisd registers, whose
// serials crld revokes and whose delegations the harness zone file decides,
// so all three detectors fire on a known share of domains.
//
// Together they give bulkDomains+overlayDomains e2LDs against staleapid's
// 1024-entry staleness LRU: the hot workloads draw from hotKeys (fits), the
// evidence workload from all of them (about 12× the cache).
const (
	bulkEntries    = 60000
	bulkDomains    = 10000
	overlayDomains = 2500
	revocations    = 300 // crld -seed-revocations: serials 1..300 of every CA
	hotKeys        = 400 // domains and fingerprints the hot workloads draw from
	sweepKeys      = 200 // domains and fingerprints each verification sweep fetches
	lruEntries     = 1024

	overlayIssuer = x509sim.IssuerID(2) // Let's Encrypt X3 in ca.NewDirectory
	mixedIssuer   = x509sim.IssuerID(3) // certificates written during ingest-mixed
	markerSuffix  = "cloudflaressl.com" // staleapid -marker default
)

var (
	// evalDay is staleapid's and crld's default -now.
	evalDay = simtime.MustParse("2023-01-01")
	// whoisBase mirrors whoisd's seeding: example%06d.com (1-based) was
	// created on whoisBase + (i-1)%365. The overlay only needs it to place
	// validity windows on both sides of the creation date; the oracle reads
	// the actual dates from whoisd.
	whoisBase = simtime.MustParse("2021-01-01")
)

// rng is splitmix64, spelled out here so that a seed gives the same corpus
// on every platform and Go release (loadgen keeps its copy unexported).
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// overlay is the harness-minted half of the corpus.
type overlay struct {
	Certs   []*x509sim.Certificate
	Domains []string // example%06d.com, in index order
	Zone    string   // dnsscand -zonefile text, apex com
}

func overlayDomain(i int) string { return fmt.Sprintf("example%06d.com", i+1) }

// buildOverlay mints the overlay deterministically from seed. Each domain
// gets one to three certificates in one of three shapes relative to its WHOIS
// creation date: issued before and expiring after it (a registrant-change
// verdict), issued after it and valid on evalDay (none), or spanning both.
// Half of those valid on evalDay carry a provider marker SAN, and half of the
// domains keep a provider delegation in the zone, so marker ∧ ¬delegated is a
// managed-TLS departure. Serials run 1..n under overlayIssuer, so crld's
// seeded CRL revokes the first `revocations` of them.
func buildOverlay(seed uint64) (*overlay, error) {
	r := &rng{state: seed ^ 0x6f7665726c6179} // "overlay"
	ov := &overlay{}
	var zone strings.Builder
	serial := 0
	for i := 0; i < overlayDomains; i++ {
		d := overlayDomain(i)
		ov.Domains = append(ov.Domains, d)
		created := whoisBase + simtime.Day(i%365)
		for k, n := 0, 1+r.intn(3); k < n; k++ {
			var nb, na simtime.Day
			switch r.intn(10) {
			case 0, 1, 2, 3:
				nb = created - simtime.Day(1+r.intn(200))
				na = nb + 398
			case 4, 5, 6:
				nb = evalDay - simtime.Day(30+r.intn(250))
				na = nb + 398
			default:
				nb = created - simtime.Day(1+r.intn(100))
				na = evalDay + simtime.Day(30+r.intn(300))
			}
			serial++
			names := []string{d, "www." + d}
			if na >= evalDay && r.intn(2) == 0 {
				names = append(names, fmt.Sprintf("sni%d.%s", 100000+serial, markerSuffix))
			}
			c, err := x509sim.New(x509sim.SerialNumber(serial), overlayIssuer,
				x509sim.KeyID(1_000_000+serial), names, nb, na)
			if err != nil {
				return nil, fmt.Errorf("mint overlay cert %d: %w", serial, err)
			}
			ov.Certs = append(ov.Certs, c)
		}
		ns := "ns1.hoster.net"
		if r.intn(2) == 0 {
			ns = "kiki.ns.cloudflare.com"
		}
		fmt.Fprintf(&zone, "%s 86400 IN NS %s\n", d, ns)
	}
	ov.Zone = zone.String()
	return ov, nil
}

// mixedCert is the i-th certificate ingest-mixed writes during its window:
// fresh names and serials, so the log never deduplicates one away.
func mixedCert(seed uint64, i int) (*x509sim.Certificate, error) {
	d := fmt.Sprintf("mixed%d-%07d.net", seed%1000, i)
	return x509sim.New(x509sim.SerialNumber(i+1), mixedIssuer, x509sim.KeyID(5_000_000+i),
		[]string{d, "www." + d}, evalDay-10, evalDay+80)
}

// keyspace is the seeded request population: every queryable e2LD and
// fingerprint of the corpus in a seed-dependent order. The first hotKeys of
// each are the hot set; the first sweepKeys of a second shuffle are the
// verification sample.
type keyspace struct {
	Domains      []string
	Fingerprints []string
	SweepDomains []string
	SweepFPs     []string
}

func shuffled(r *rng, in []string) []string {
	out := append([]string(nil), in...)
	for i := len(out) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// buildKeyspace derives the request keys from the corpus the log actually
// serves. The marker e2LD itself is left out: it names every managed
// certificate, so its listing is a different, much larger response.
//
// The first hotKeys domains and fingerprints are bulk ones. ctlogd seeds
// every bulk domain with the same number of single-name certificates, so the
// head of a Zipf draw costs the same whichever domains a seed puts there;
// with overlay domains (one to three certificates, two or three names) in
// the head, which of them a seed ranked first moved the hot workloads by
// several percent. Past the hot set one overlay domain follows every few
// bulk ones.
func buildKeyspace(seed uint64, idx core.Index, ovDomains []string) *keyspace {
	r := &rng{state: seed ^ 0x6b657973} // "keys"
	isOverlay := make(map[string]bool, len(ovDomains))
	for _, d := range ovDomains {
		isOverlay[d] = true
	}
	seen := make(map[string]bool)
	var bulk, bulkFPs, ovFPs []string
	for _, c := range idx.Certs() {
		overlayCert := false
		for _, d := range core.CertE2LDs(idx.PSL(), c) {
			overlayCert = overlayCert || isOverlay[d]
			if d == markerSuffix || seen[d] || isOverlay[d] {
				continue
			}
			seen[d] = true
			bulk = append(bulk, d)
		}
		if overlayCert {
			ovFPs = append(ovFPs, c.Fingerprint().Hex())
		} else {
			bulkFPs = append(bulkFPs, c.Fingerprint().Hex())
		}
	}
	sort.Strings(bulk)
	sort.Strings(bulkFPs)
	sort.Strings(ovFPs)
	bulk, bulkFPs = shuffled(r, bulk), shuffled(r, bulkFPs)
	ovs := shuffled(r, ovDomains)

	ks := &keyspace{}
	head := min(hotKeys, len(bulk))
	ks.Domains, bulk = append(ks.Domains, bulk[:head]...), bulk[head:]
	stride := len(bulk)/max(len(ovs), 1) + 1
	for len(bulk) > 0 || len(ovs) > 0 {
		n := min(stride, len(bulk))
		ks.Domains = append(ks.Domains, bulk[:n]...)
		bulk = bulk[n:]
		if len(ovs) > 0 {
			ks.Domains = append(ks.Domains, ovs[0])
			ovs = ovs[1:]
		}
	}
	head = min(hotKeys, len(bulkFPs))
	ks.Fingerprints = append(ks.Fingerprints, bulkFPs[:head]...)
	ks.Fingerprints = append(ks.Fingerprints, shuffled(r, append(bulkFPs[head:], ovFPs...))...)

	// Half the swept domains are overlay ones, where the verdicts are.
	half := min(sweepKeys/2, len(ovDomains))
	ks.SweepDomains = append(ks.SweepDomains, shuffled(r, ovDomains)[:half]...)
	for _, d := range shuffled(r, ks.Domains) {
		if len(ks.SweepDomains) >= sweepKeys {
			break
		}
		if !isOverlay[d] {
			ks.SweepDomains = append(ks.SweepDomains, d)
		}
	}
	ks.SweepFPs = shuffled(r, ks.Fingerprints)[:min(sweepKeys, len(ks.Fingerprints))]
	return ks
}
