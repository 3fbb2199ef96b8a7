// Package staleapi is the HTTP query surface over a persistent certstore:
// point lookups by certificate fingerprint, per-domain certificate listings,
// and live staleness verdicts computed by running the three detectors'
// per-domain logic (core.DomainStaleness) against the shared index. Hot
// domains are protected by a TTL'd LRU with singleflight, so a burst of
// identical staleness queries costs one evidence fetch.
package staleapi

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"stalecert/internal/certstore"
	"stalecert/internal/core"
	"stalecert/internal/dnsname"
	"stalecert/internal/lru"
	"stalecert/internal/obs"
	"stalecert/internal/shard"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

// Query-path metrics beyond the RED middleware: per-endpoint result sizes
// and evidence failures.
var (
	mStaleResults    = obs.Default().Counter("staleapi_stale_results_total")
	mEvidenceErrors  = obs.Default().Counter("staleapi_evidence_errors_total")
	mUnknownFP       = obs.Default().Counter("staleapi_unknown_fingerprint_total")
	mDomainQueries   = obs.Default().Counter("staleapi_domain_queries_total")
	mStalenessChecks = obs.Default().Counter("staleapi_staleness_checks_total")
)

// EvidenceFunc gathers one domain's staleness evidence (WHOIS creation date,
// CRL entries, DNS delegation state). A nil func disables evidence — the
// staleness endpoint then reports on an empty event set.
type EvidenceFunc func(ctx context.Context, domain string) (core.DomainEvidence, error)

// Server answers staleapid's /v1 API from a certstore.
type Server struct {
	store    *certstore.Store
	evidence EvidenceFunc
	now      func() simtime.Day
	cache    *lru.Cache
	health   *obs.Health
}

// Config assembles a Server.
type Config struct {
	// Store is required.
	Store *certstore.Store
	// Evidence fills DomainEvidence per staleness query; nil disables.
	Evidence EvidenceFunc
	// Now is the evaluation day for staleness windows.
	Now func() simtime.Day
	// CacheEntries/CacheTTL size the staleness LRU (defaults 1024, 5s).
	CacheEntries int
	CacheTTL     time.Duration
	// Health backs /healthz and /readyz on the API listener; defaults to
	// obs.DefaultHealth() so the daemon's probes show on both ports.
	Health *obs.Health
}

// NewCache is lru.New under staleapid's metric names, the constructor the
// benchmark harness builds its cache-only measurement with.
func NewCache(max int, ttl time.Duration) *lru.Cache { return lru.New("staleapi", max, ttl) }

// NewServer builds the API server.
func NewServer(cfg Config) *Server {
	if cfg.Store == nil {
		panic("staleapi: Config.Store is required")
	}
	if cfg.Now == nil {
		cfg.Now = func() simtime.Day { return simtime.MustParse("2023-01-01") }
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 1024
	}
	if cfg.CacheTTL == 0 {
		cfg.CacheTTL = 5 * time.Second
	}
	if cfg.Health == nil {
		cfg.Health = obs.DefaultHealth()
	}
	return &Server{
		store:    cfg.Store,
		evidence: cfg.Evidence,
		now:      cfg.Now,
		cache:    lru.New("staleapi", cfg.CacheEntries, cfg.CacheTTL),
		health:   cfg.Health,
	}
}

// Handler returns the API mux. Wrap it in obs.Middleware for RED metrics,
// request IDs and panic recovery.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cert/{fp}", s.handleCert)
	mux.HandleFunc("GET /v1/domain/{e2ld}/certs", s.handleDomainCerts)
	mux.HandleFunc("GET /v1/domain/{e2ld}/staleness", s.handleStaleness)
	mux.HandleFunc("GET /v1/domains", s.handleDomains)
	mux.HandleFunc("GET /v1/shardmap", s.handleShardmap)
	mux.HandleFunc("GET /healthz", s.health.Healthz)
	mux.HandleFunc("GET /readyz", s.health.Readyz)
	return mux
}

// CertJSON is the wire form of one certificate. The server does not encode
// it through encoding/json: appendCert writes the same bytes obs.WriteJSON
// would, and clients decode into this type.
type CertJSON struct {
	Fingerprint string   `json:"fingerprint"`
	Short       string   `json:"fingerprint_short"`
	Serial      uint64   `json:"serial"`
	Issuer      uint16   `json:"issuer"`
	Key         uint64   `json:"key"`
	Names       []string `json:"names"`
	NotBefore   string   `json:"not_before"`
	NotAfter    string   `json:"not_after"`
	Usage       string   `json:"usage"`
	Precert     bool     `json:"precert"`
	SCTCount    uint8    `json:"sct_count"`
}

// certBodySize is about what appendCert writes for a two-name certificate
// inside a listing, so one allocation usually holds a whole body.
const certBodySize = 512

// appendCert appends c's CertJSON form exactly as obs.WriteJSON's indented
// encoder writes it for an object opened at depth (0 for a body of its own,
// 2 inside a listing's "certs" array), without a trailing newline.
func appendCert(b []byte, c *x509sim.Certificate, depth int) []byte {
	fp := c.Fingerprint()
	in := depth + 1
	b = appendKey(append(b, '{'), in, "fingerprint")
	b = append(hex.AppendEncode(append(b, '"'), fp[:]), '"')
	b = appendKey(append(b, ','), in, "fingerprint_short")
	b = append(hex.AppendEncode(append(b, '"'), fp[:8]), '"')
	b = strconv.AppendUint(appendKey(append(b, ','), in, "serial"), uint64(c.Serial), 10)
	b = strconv.AppendUint(appendKey(append(b, ','), in, "issuer"), uint64(c.Issuer), 10)
	b = strconv.AppendUint(appendKey(append(b, ','), in, "key"), uint64(c.Key), 10)
	b = appendKey(append(b, ','), in, "names")
	if len(c.Names) == 0 {
		b = append(b, "null"...)
	} else {
		sep := byte('[')
		for _, n := range c.Names {
			b = appendString(appendNewline(append(b, sep), in+1), n)
			sep = ','
		}
		b = append(appendNewline(b, in), ']')
	}
	b = appendKey(append(b, ','), in, "not_before")
	b = append(c.NotBefore.AppendFormat(append(b, '"')), '"')
	b = appendKey(append(b, ','), in, "not_after")
	b = append(c.NotAfter.AppendFormat(append(b, '"')), '"')
	b = appendString(appendKey(append(b, ','), in, "usage"), c.Usage.String())
	b = strconv.AppendBool(appendKey(append(b, ','), in, "precert"), c.Precert)
	b = strconv.AppendUint(appendKey(append(b, ','), in, "sct_count"), uint64(c.SCTCount), 10)
	return append(appendNewline(b, depth), '}')
}

// certBody is the /v1/cert/{fp} body.
func certBody(c *x509sim.Certificate) []byte {
	return append(appendCert(make([]byte, 0, certBodySize), c, 0), '\n')
}

// domainCertsBody is the /v1/domain/{e2ld}/certs body: the
// DomainCertsResponse obs.WriteJSON would send, in one pass.
func domainCertsBody(domain string, certs []*x509sim.Certificate) []byte {
	b := make([]byte, 0, 64+len(domain)+len(certs)*certBodySize)
	b = appendString(append(b, "{\n  \"domain\": "...), domain)
	b = append(b, ",\n  \"certs\": ["...)
	for i, c := range certs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendCert(appendNewline(b, 2), c, 2)
	}
	if len(certs) > 0 {
		b = appendNewline(b, 1)
	}
	return append(b, "]\n}\n"...)
}

// appendNewline starts a line indented to depth.
func appendNewline(b []byte, depth int) []byte {
	b = append(b, '\n')
	for ; depth > 0; depth-- {
		b = append(b, "  "...)
	}
	return b
}

// appendKey starts an object member on a new line at depth.
func appendKey(b []byte, depth int, key string) []byte {
	return append(append(append(appendNewline(b, depth), '"'), key...), `": `...)
}

// appendString appends s as a JSON string. Printable ASCII that encoding/json
// leaves alone is copied; anything else is json.Marshal's, so its escaping
// (HTML characters, invalid UTF-8, U+2028/U+2029) is encoding/json's own.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// staleBodySize is about what stalenessBody writes for one stale entry.
const staleBodySize = 224

// stalenessBody is the /v1/domain/{e2ld}/staleness body: r as obs.WriteJSON
// would send it, in one pass.
func stalenessBody(r *StalenessResponse) []byte {
	b := make([]byte, 0, 128+len(r.Domain)+len(r.Stale)*staleBodySize)
	b = appendString(appendKey(append(b, '{'), 1, "domain"), r.Domain)
	b = appendString(appendKey(append(b, ','), 1, "now"), r.Now)
	b = strconv.AppendInt(appendKey(append(b, ','), 1, "certs_indexed"), int64(r.CertsIndexed), 10)
	b = appendKey(append(b, ','), 1, "stale")
	switch {
	case r.Stale == nil:
		b = append(b, "null"...)
	case len(r.Stale) == 0:
		b = append(b, "[]"...)
	default:
		sep := byte('[')
		for _, s := range r.Stale {
			b = append(appendNewline(append(b, sep), 2), '{')
			b = appendString(appendKey(b, 3, "fingerprint"), s.Fingerprint)
			b = appendString(appendKey(append(b, ','), 3, "method"), s.Method)
			b = appendString(appendKey(append(b, ','), 3, "event_day"), s.EventDay)
			b = strconv.AppendInt(appendKey(append(b, ','), 3, "staleness_days"), int64(s.StalenessDays), 10)
			if s.Domain != "" {
				b = appendString(appendKey(append(b, ','), 3, "domain"), s.Domain)
			}
			if s.Reason != "" {
				b = appendString(appendKey(append(b, ','), 3, "reason"), s.Reason)
			}
			b = append(appendNewline(b, 2), '}')
			sep = ','
		}
		b = append(appendNewline(b, 1), ']')
	}
	b = strconv.AppendBool(appendKey(append(b, ','), 1, "cached"), r.Cached)
	if r.Degraded {
		b = append(appendKey(append(b, ','), 1, "degraded"), "true"...)
	}
	if r.EvidenceAge != "" {
		b = appendString(appendKey(append(b, ','), 1, "evidence_age"), r.EvidenceAge)
	}
	return append(b, "\n}\n"...)
}

// StaleJSON is one staleness verdict.
type StaleJSON struct {
	Fingerprint   string `json:"fingerprint"`
	Method        string `json:"method"`
	EventDay      string `json:"event_day"`
	StalenessDays int    `json:"staleness_days"`
	Domain        string `json:"domain,omitempty"`
	Reason        string `json:"reason,omitempty"`
}

// StalenessResponse is the /v1/domain/{e2ld}/staleness payload.
type StalenessResponse struct {
	Domain       string      `json:"domain"`
	Now          string      `json:"now"`
	CertsIndexed int         `json:"certs_indexed"`
	Stale        []StaleJSON `json:"stale"`
	Cached       bool        `json:"cached"`
	// Degraded marks a verdict served from the retained last-good cache
	// entry because live evidence gathering failed; EvidenceAge says how old
	// that evidence is. Such responses also carry an X-Stale-Evidence header.
	Degraded    bool   `json:"degraded,omitempty"`
	EvidenceAge string `json:"evidence_age,omitempty"`
}

// DomainCertsResponse is the /v1/domain/{e2ld}/certs payload.
type DomainCertsResponse struct {
	Domain string     `json:"domain"`
	Certs  []CertJSON `json:"certs"`
}

type errorJSON struct {
	Error string `json:"error"`
}

func (s *Server) handleCert(w http.ResponseWriter, r *http.Request) {
	fp, short, err := x509sim.ParseFingerprint(r.PathValue("fp"))
	if err != nil {
		obs.WriteJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error()})
		return
	}
	var cert *x509sim.Certificate
	var ok bool
	if short {
		var prefix [8]byte
		copy(prefix[:], fp[:8])
		cert, ok = s.store.ByShortFingerprint(prefix)
	} else {
		cert, ok = s.store.ByFingerprint(fp)
	}
	if !ok {
		mUnknownFP.Inc()
		obs.WriteJSON(w, http.StatusNotFound, errorJSON{Error: "unknown fingerprint"})
		return
	}
	// Cache under the canonical full fingerprint, never the request's own
	// spelling: the 16-hex short form and the 64-hex full form of one
	// certificate must share a single entry, not populate two. The entry is
	// the encoded body: a certificate never changes, so a hit writes bytes.
	if short {
		fp = cert.Fingerprint()
	}
	v, _, _ := s.cache.Do("cert:"+fp.Hex(), func() (any, error) { // cannot fail
		return certBody(cert), nil
	})
	obs.WriteBody(w, http.StatusOK, obs.JSONContentType, v.([]byte))
}

// DomainsResponse is the /v1/domains payload: the indexed e2LDs matching the
// optional ?prefix= filter, truncated at ?limit= (Total counts all matches,
// so a caller can see the truncation). The gateway's scatter-merge endpoint
// is built on this.
type DomainsResponse struct {
	Domains []string `json:"domains"`
	Total   int      `json:"total"`
}

func (s *Server) handleDomains(w http.ResponseWriter, r *http.Request) {
	prefix := dnsname.Canonical(r.URL.Query().Get("prefix"))
	limit := 100
	if ls := r.URL.Query().Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n <= 0 {
			obs.WriteJSON(w, http.StatusBadRequest, errorJSON{Error: "bad limit"})
			return
		}
		limit = min(n, 10000)
	}
	resp := DomainsResponse{Domains: []string{}}
	for _, d := range s.store.Domains() {
		if !strings.HasPrefix(d, prefix) {
			continue
		}
		resp.Total++
		if len(resp.Domains) < limit {
			resp.Domains = append(resp.Domains, d)
		}
	}
	obs.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleShardmap(w http.ResponseWriter, _ *http.Request) {
	obs.WriteJSON(w, http.StatusOK, shard.NewSelf(s.store.Slice(), s.store.Len()))
}

// domainParam canonicalises and validates the e2LD path segment.
func domainParam(r *http.Request) (string, error) {
	d := dnsname.Canonical(r.PathValue("e2ld"))
	if err := dnsname.Check(d, false); err != nil {
		return "", fmt.Errorf("bad domain: %w", err)
	}
	return d, nil
}

func (s *Server) handleDomainCerts(w http.ResponseWriter, r *http.Request) {
	domain, err := domainParam(r)
	if err != nil {
		obs.WriteJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error()})
		return
	}
	mDomainQueries.Inc()
	obs.WriteBody(w, http.StatusOK, obs.JSONContentType, domainCertsBody(domain, s.store.ByE2LD(domain)))
}

func (s *Server) handleStaleness(w http.ResponseWriter, r *http.Request) {
	domain, err := domainParam(r)
	if err != nil {
		obs.WriteJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error()})
		return
	}
	mStalenessChecks.Inc()
	ctx := r.Context()
	v, info, err := s.cache.Do("staleness:"+domain, func() (any, error) { return s.staleness(ctx, domain) })
	if err != nil {
		mEvidenceErrors.Inc()
		status := http.StatusBadGateway
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		}
		obs.WriteJSON(w, status, errorJSON{Error: err.Error()})
		return
	}
	verdict := v.(*cachedVerdict)
	if info.Hit {
		// No evidence was gathered: a hit says nothing about the sources.
		obs.WriteBody(w, http.StatusOK, obs.JSONContentType, verdict.hit())
		return
	}
	resp := verdict.resp
	if info.Stale {
		// Live evidence failed but a last-good verdict is retained: serve it
		// marked degraded rather than 502ing the query, aged from its oldest
		// remote answer (the verdict is Dated).
		mEvidenceErrors.Inc()
		resp.Degraded = true
		resp.EvidenceAge = info.Age.Round(time.Millisecond).String()
		w.Header().Set(obs.StaleEvidenceHeader,
			fmt.Sprintf("staleness:%s age=%s", domain, resp.EvidenceAge))
	}
	obs.WriteBody(w, http.StatusOK, obs.JSONContentType, stalenessBody(&resp))
}

// cachedVerdict is what the cache holds for one domain's staleness: the
// response a miss and a degraded answer append afresh, and the body every hit
// serves. That body is built by the first hit, not by the miss — on a key
// space larger than the cache most verdicts are never asked for twice.
type cachedVerdict struct {
	resp     StalenessResponse
	observed time.Time // the evidence's ObservedAt
	once     sync.Once
	hitBody  []byte
}

// AsOf makes the verdict an lru.Dated value: it expires a TTL after its
// oldest remote answer was fetched, and its degraded age counts from there.
func (v *cachedVerdict) AsOf() time.Time { return v.observed }

// hit returns the body of resp with "cached": true.
func (v *cachedVerdict) hit() []byte {
	v.once.Do(func() {
		resp := v.resp
		resp.Cached = true
		v.hitBody = stalenessBody(&resp)
	})
	return v.hitBody
}

// staleness computes one domain's verdict: gather evidence, run the shared
// per-domain detector logic against the store index, render. The stage
// timings (evidence vs detect) are mirrored into the request's distributed
// trace, so a slow staleness query shows which half cost the time.
func (s *Server) staleness(ctx context.Context, domain string) (*cachedVerdict, error) {
	id, _ := obs.RequestIDFromContext(ctx) // zero outside a traced request: stages go unrecorded
	var ev core.DomainEvidence
	ev.RevocationCutoff = simtime.NoDay
	if s.evidence != nil {
		sp := obs.StartStage(id, "staleapid", "evidence")
		var err error
		ev, err = s.evidence(ctx, domain)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("evidence for %s: %w", domain, err)
		}
	}
	now := s.now()
	sp := obs.StartStage(id, "staleapid", "detect")
	certs := s.store.ByE2LD(domain) // one read: the verdict and its count see the same list
	stale := core.CertsStaleness(s.store, domain, certs, ev)
	sp.End()
	resp := StalenessResponse{
		Domain:       domain,
		Now:          now.String(),
		CertsIndexed: len(certs),
		Stale:        make([]StaleJSON, 0, len(stale)),
	}
	for _, sc := range stale {
		sj := StaleJSON{
			Fingerprint:   sc.Cert.Fingerprint().Hex(),
			Method:        sc.Method.String(),
			EventDay:      sc.EventDay.String(),
			StalenessDays: sc.StalenessDays(),
			Domain:        sc.Domain,
		}
		if sc.Method == core.MethodRevocation || sc.Method == core.MethodKeyCompromise {
			sj.Reason = sc.Reason.String()
		}
		resp.Stale = append(resp.Stale, sj)
		mStaleResults.Inc()
	}
	return &cachedVerdict{resp: resp, observed: ev.ObservedAt}, nil
}
