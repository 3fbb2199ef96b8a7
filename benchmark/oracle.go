package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strings"

	"stalecert/internal/ca"
	"stalecert/internal/core"
	"stalecert/internal/crl"
	"stalecert/internal/ctlog"
	"stalecert/internal/dnssim"
	"stalecert/internal/monitor"
	"stalecert/internal/shard"
	"stalecert/internal/simtime"
	"stalecert/internal/whois"
	"stalecert/internal/x509sim"
)

// oracle answers what the fleet should answer: core.DomainStaleness over an
// in-process corpus of the certificates the log serves, with evidence the
// harness gathered itself — the zone file it wrote, the CRLs and WHOIS
// records it read straight from crld and whoisd.
type oracle struct {
	corpus      *core.Corpus
	byFP        map[string]*x509sim.Certificate // hex fingerprint → certificate
	delegated   map[string]bool                 // overlay domain → zone keeps a provider NS
	revocations []crl.Entry
	whoisAddr   string // empty when the topology has no evidence plane
}

// scrapeCorpus downloads the whole log and indexes it. The per-FQDN anomaly
// filter is off: certstore applies none, and the oracle must index exactly
// what staleapid does.
func scrapeCorpus(ctx context.Context, logURL string) (*core.Corpus, error) {
	entries, _, err := ctlog.NewClient(logURL, nil).Scrape(ctx, ctlog.ScrapeOptions{})
	if err != nil {
		return nil, fmt.Errorf("scrape log for the oracle: %w", err)
	}
	certs := make([]*x509sim.Certificate, len(entries))
	for i, e := range entries {
		certs[i] = e.Cert
	}
	return core.NewCorpus(certs, core.CorpusOptions{MaxPerFQDN: -1}), nil
}

// zoneDelegations reads back the harness zone file: which domains keep an
// apex NS under ns.cloudflare.com, the delegation staleapid looks for.
func zoneDelegations(zone string) map[string]bool {
	out := make(map[string]bool)
	for _, line := range strings.Split(zone, "\n") {
		f := strings.Fields(line)
		if len(f) == 5 && f[3] == "NS" {
			out[f[0]] = out[f[0]] || strings.HasSuffix(f[4], ".ns.cloudflare.com")
		}
	}
	return out
}

func newOracle(ctx context.Context, dep *deployment, ov *overlay) (*oracle, error) {
	corpus, err := scrapeCorpus(ctx, dep.logURL())
	if err != nil {
		return nil, err
	}
	o := &oracle{corpus: corpus, delegated: zoneDelegations(ov.Zone),
		byFP: make(map[string]*x509sim.Certificate, corpus.Len())}
	for _, c := range corpus.Certs() {
		o.byFP[c.Fingerprint().Hex()] = c
	}
	if dep.crl == nil {
		return o, nil
	}
	o.whoisAddr = dep.whois.Addr
	var names []string
	for _, p := range ca.NewDirectory().All() {
		names = append(names, p.Name)
	}
	lists, err := (&crl.Fetcher{Base: "http://" + dep.crl.Addr}).FetchAll(ctx, names)
	if err != nil {
		return nil, fmt.Errorf("fetch CRLs for the oracle: %w", err)
	}
	for _, n := range names { // directory order, as staleapid concatenates them
		if l := lists[n]; l != nil {
			o.revocations = append(o.revocations, l.Entries...)
		}
	}
	if len(o.revocations) == 0 {
		return nil, errors.New("crld served no revocations")
	}
	return o, nil
}

// retarget points the oracle at another fleet of the same run. Fleets of one
// seed are seeded alike — same bulk, same overlay, same CRLs — so what was
// read from the first holds for the rest; only whoisd's address moves. The
// log's size is checked, the content by every sweep.
func (o *oracle) retarget(dep *deployment) error {
	if dep.LogSize != uint64(o.corpus.Len()) {
		return fmt.Errorf("this fleet's log holds %d entries, the oracle's corpus %d", dep.LogSize, o.corpus.Len())
	}
	if dep.whois != nil {
		o.whoisAddr = dep.whois.Addr
	}
	return nil
}

// evidence gathers one domain's events the way staleapid's flags wire them:
// a WHOIS creation date is a re-registration, a missing provider delegation
// is a departure on the evaluation day, every CRL entry is a candidate.
func (o *oracle) evidence(ctx context.Context, domain string) (core.DomainEvidence, error) {
	ev := core.DomainEvidence{RevocationCutoff: simtime.NoDay}
	if o.whoisAddr == "" {
		return ev, nil
	}
	ev.IsManaged = func(c *x509sim.Certificate) bool { return monitor.HasProviderMarker(c, markerSuffix) }
	ev.Revocations = o.revocations
	rec, err := whois.Query(ctx, o.whoisAddr, domain)
	switch {
	case err == nil:
		ev.ReRegistrations = []whois.ReRegistration{{Domain: domain, NewCreation: rec.Created}}
	case !errors.Is(err, whois.ErrNoMatch):
		return ev, fmt.Errorf("oracle whois %s: %w", domain, err)
	}
	if !o.delegated[domain] {
		ev.Departures = []dnssim.Departure{{Domain: domain, LastSeen: evalDay - 1, FirstGone: evalDay}}
	}
	return ev, nil
}

// verdict is one element of a staleness response's "stale" array.
type verdict struct {
	Fingerprint   string `json:"fingerprint"`
	Method        string `json:"method"`
	EventDay      string `json:"event_day"`
	StalenessDays int    `json:"staleness_days"`
	Domain        string `json:"domain,omitempty"`
	Reason        string `json:"reason,omitempty"`
}

// expected renders core.DomainStaleness's answer in the API's wire shape.
func (o *oracle) expected(ctx context.Context, domain string) ([]verdict, int, error) {
	ev, err := o.evidence(ctx, domain)
	if err != nil {
		return nil, 0, err
	}
	out := []verdict{}
	for _, sc := range core.DomainStaleness(o.corpus, domain, ev) {
		v := verdict{
			Fingerprint:   sc.Cert.Fingerprint().Hex(),
			Method:        sc.Method.String(),
			EventDay:      sc.EventDay.String(),
			StalenessDays: sc.StalenessDays(),
			Domain:        sc.Domain,
		}
		if sc.Method == core.MethodRevocation {
			v.Reason = sc.Reason.String()
		}
		out = append(out, v)
	}
	return out, len(o.corpus.ByE2LD(domain)), nil
}

// sweepResult is the outcome of one verification sweep.
type sweepResult struct {
	Attempted, Failed int
	Methods           map[string]int // verdicts seen, by method
	Problems          []string       // first few mismatches, for the report
}

func (s *sweepResult) fail(format string, args ...any) {
	s.Failed++
	if len(s.Problems) < 5 {
		s.Problems = append(s.Problems, fmt.Sprintf(format, args...))
	}
}

// normalizeCached blanks the one field that legitimately differs between
// two fetches of the same verdict.
func normalizeCached(b []byte) []byte {
	return bytes.ReplaceAll(b, []byte(`"cached": true`), []byte(`"cached": false`))
}

// sweep fetches the seeded sample of domains and fingerprints from the
// target and compares every answer with the oracle's. Behind the gateway
// each answer is also byte-compared with the owning slice's first replica.
func sweep(ctx context.Context, dep *deployment, o *oracle, ks *keyspace) (*sweepResult, error) {
	hc := newLoadClient(clients)
	defer hc.CloseIdleConnections()
	res := &sweepResult{Methods: make(map[string]int)}
	target := dep.target()
	var ring *shard.Ring
	if dep.gw != nil {
		var err error
		if ring, err = shard.NewRing(len(dep.replicas), shard.DefaultVNodes); err != nil {
			return nil, err
		}
	}
	direct := func(slice int, path string, via []byte) {
		code, body, err := fetch(ctx, hc, "http://"+dep.replicas[slice][0].Addr+path)
		if err != nil || code != http.StatusOK || !bytes.Equal(normalizeCached(body), normalizeCached(via)) {
			res.fail("%s: gateway and slice %d replica disagree (status %d, err %v)", path, slice, code, err)
		}
	}

	for _, d := range ks.SweepDomains {
		res.Attempted++
		path := "/v1/domain/" + d + "/staleness"
		code, body, err := fetch(ctx, hc, target+path)
		if err != nil || code != http.StatusOK {
			res.fail("%s: status %d, err %v", path, code, err)
			continue
		}
		var got struct {
			Domain       string    `json:"domain"`
			CertsIndexed int       `json:"certs_indexed"`
			Stale        []verdict `json:"stale"`
			Degraded     bool      `json:"degraded"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			res.fail("%s: %v", path, err)
			continue
		}
		want, indexed, err := o.expected(ctx, d)
		if err != nil {
			return nil, err
		}
		for _, v := range got.Stale {
			res.Methods[v.Method]++
		}
		switch {
		case got.Degraded:
			res.fail("%s: degraded verdict", path)
		case got.Domain != d || got.CertsIndexed != indexed:
			res.fail("%s: domain %q with %d certs, oracle has %d", path, got.Domain, got.CertsIndexed, indexed)
		case !reflect.DeepEqual(got.Stale, want):
			res.fail("%s: stale = %+v, oracle says %+v", path, got.Stale, want)
		case ring != nil:
			direct(ring.Lookup(shard.KeyForDomain(d)), path, body)
		}
	}

	for _, fp := range ks.SweepFPs {
		res.Attempted++
		path := "/v1/cert/" + fp
		code, body, err := fetch(ctx, hc, target+path)
		if err != nil || code != http.StatusOK {
			res.fail("%s: status %d, err %v", path, code, err)
			continue
		}
		var got struct {
			Fingerprint string   `json:"fingerprint"`
			Serial      uint64   `json:"serial"`
			Issuer      uint16   `json:"issuer"`
			Names       []string `json:"names"`
			NotBefore   string   `json:"not_before"`
			NotAfter    string   `json:"not_after"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			res.fail("%s: %v", path, err)
			continue
		}
		want := o.byFP[fp]
		switch {
		case want == nil:
			return nil, fmt.Errorf("sweep fingerprint %s is not in the oracle corpus", fp)
		case got.Fingerprint != fp || got.Serial != uint64(want.Serial) || got.Issuer != uint16(want.Issuer) ||
			!reflect.DeepEqual(got.Names, want.Names) ||
			got.NotBefore != want.NotBefore.String() || got.NotAfter != want.NotAfter.String():
			res.fail("%s: got %+v, oracle has %v", path, got, want)
		case ring != nil:
			owners := shard.CertOwners(ring, o.corpus.PSL(), want)
			direct(owners[0], path, body)
		}
	}
	return res, nil
}
