// Package stalegw is the stateless query gateway in front of a sharded
// staleapid fleet. It holds no certificate state of its own: a versioned
// shard.Map tells it which replica group owns which ring slice, and every
// query is either owner-routed (domain endpoints — the e2LD names exactly
// one slice) or scatter-gathered (fingerprint and listing endpoints — the
// owner cannot be derived from the request alone).
//
// Every slice may be served by several interchangeable replicas. The
// gateway picks a live replica per call (probe state + breaker state,
// rotated for load spread), fails over to siblings on error or open
// breaker, and — with HedgeAfter set — hedges slow calls by racing a
// sibling replica, first response winning. Only when every replica of a
// slice is down does degradation begin.
//
// Degradation is graceful on both paths. Owner-routed queries whose whole
// slice is down are answered from the gateway's last-good cache for up to
// ten minutes, marked "degraded": true with X-Stale-Evidence and
// X-Missing-Shards headers.
// Scatter-gather queries return partial results over the live slices, again
// marked degraded with the missing slice indexes, instead of failing the
// whole query because one slice died. Readiness is quorum-based over
// slices, not processes: a slice is up while at least one replica is
// healthy; all slices up → ready, at least Quorum up → degraded (200),
// below quorum → unready (503).
package stalegw

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stalecert/internal/dnsname"
	"stalecert/internal/lru"
	"stalecert/internal/obs"
	"stalecert/internal/resil"
	"stalecert/internal/shard"
	"stalecert/internal/x509sim"
)

// MissingShardsHeader lists the ring indexes a degraded response is missing
// data from, comma-separated.
const MissingShardsHeader = "X-Missing-Shards"

// maxStaleAge bounds how old a last-good body may be and still be served
// stale: past it, a dead slice's answer is a 502 naming the slice.
const maxStaleAge = 10 * time.Minute

// maxShardBody bounds how much of one shard response the gateway buffers; a
// longer one fails its leg.
const maxShardBody = 8 << 20

var (
	mFanouts     = obs.Default().Counter("stalegw_fanouts_total")
	mPartial     = obs.Default().Counter("stalegw_partial_results_total")
	mStaleServed = obs.Default().Counter("stalegw_stale_served_total")

	// How a fingerprint lookup that reached the replicas found its answer:
	// from the slice that answered last time, from a scatter for want of a
	// hint, or from the gather a hint that no longer held fell back to.
	mCertViaHint     = obs.Default().Counter("stalegw_cert_lookups_total", "via", "hint")
	mCertViaScatter  = obs.Default().Counter("stalegw_cert_lookups_total", "via", "scatter")
	mCertViaFallback = obs.Default().Counter("stalegw_cert_lookups_total", "via", "fallback")
)

// Config assembles a Gateway.
type Config struct {
	// Map is the fleet topology: every member must carry its API base URL.
	Map shard.Map
	// Client performs shard calls. Wire a resil-instrumented client so each
	// fan-out leg gets per-shard circuit breaking, retries and trace spans;
	// nil falls back to http.DefaultClient (tests only).
	Client *http.Client
	// Quorum is the minimum live shards for degraded readiness (default
	// majority, n/2+1). Below it /readyz reports 503.
	Quorum int
	// CacheEntries/CacheTTL size the last-good response cache backing
	// serve-stale degradation (defaults 4096, 5s).
	CacheEntries int
	CacheTTL     time.Duration
	// HedgeAfter, when > 0, races a sibling replica after this long without
	// a response (plus error-driven failover, which is always on).
	HedgeAfter time.Duration
	// Clock paces the hedge timer and ages the response cache's entries
	// (default: the real clock; tests inject a resil.FakeClock).
	Clock resil.Clock
	// Breakers, when set, lets replica selection skip replicas whose
	// circuit is open before ever dialing them. Share the set wired into
	// Client so selection sees the same circuits the transport trips.
	Breakers *resil.BreakerSet
	// Health receives the slice-quorum probe (default obs.DefaultHealth()).
	Health *obs.Health
}

// Gateway routes /v1 queries to the owning slices' replica groups.
type Gateway struct {
	m        shard.Map
	ring     *shard.Ring
	groups   [][]string // per slice: replica base URLs
	hosts    [][]string // per slice: replica URL hosts (breaker peer keys)
	client   *http.Client
	cache    *lru.Cache
	health   *obs.Health
	quorum   int
	breakers *resil.BreakerSet
	hedge    resil.Hedge

	rr []atomic.Uint32 // per-slice healthy-replica rotation

	mShardReq  []*obs.Counter
	mShardErr  []*obs.Counter
	mHedged    []*obs.Counter
	mHedgeWins []*obs.Counter
	mFailovers []*obs.Counter
	gShardUp   []*obs.Gauge
	gReplicaUp [][]*obs.Gauge

	// Probe state: per-replica liveness from the last probe round.
	probeMu     sync.Mutex
	probed      bool
	replicaErrs [][]error
}

// New validates the map and builds the gateway.
func New(cfg Config) (*Gateway, error) {
	ring, err := cfg.Map.Ring()
	if err != nil {
		return nil, err
	}
	n := len(cfg.Map.Shards)
	groups := make([][]string, n)
	hosts := make([][]string, n)
	for _, m := range cfg.Map.Shards {
		for _, a := range m.Group() {
			a = strings.TrimRight(a, "/")
			u, uerr := url.Parse(a)
			if uerr != nil || u.Host == "" {
				return nil, fmt.Errorf("stalegw: shard %d: bad replica address %q", m.Index, a)
			}
			groups[m.Index] = append(groups[m.Index], a)
			hosts[m.Index] = append(hosts[m.Index], u.Host)
		}
		if len(groups[m.Index]) == 0 {
			return nil, fmt.Errorf("stalegw: shard %d has no address", m.Index)
		}
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Quorum <= 0 {
		cfg.Quorum = n/2 + 1
	}
	if cfg.Quorum > n {
		return nil, fmt.Errorf("stalegw: quorum %d exceeds %d slices", cfg.Quorum, n)
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 4096
	}
	if cfg.CacheTTL == 0 {
		cfg.CacheTTL = 5 * time.Second
	}
	if cfg.Health == nil {
		cfg.Health = obs.DefaultHealth()
	}
	cache := lru.New("stalegw", cfg.CacheEntries, cfg.CacheTTL)
	if cfg.Clock != nil {
		cache.SetClock(cfg.Clock.Now)
	}
	g := &Gateway{
		m:           cfg.Map,
		ring:        ring,
		groups:      groups,
		hosts:       hosts,
		client:      cfg.Client,
		cache:       cache,
		health:      cfg.Health,
		quorum:      cfg.Quorum,
		breakers:    cfg.Breakers,
		hedge:       resil.Hedge{After: cfg.HedgeAfter, Clock: cfg.Clock},
		rr:          make([]atomic.Uint32, n),
		replicaErrs: make([][]error, n),
	}
	for i := range groups {
		label := strconv.Itoa(i)
		g.replicaErrs[i] = make([]error, len(groups[i]))
		g.mShardReq = append(g.mShardReq, obs.Default().Counter("stalegw_shard_requests_total", "shard", label))
		g.mShardErr = append(g.mShardErr, obs.Default().Counter("stalegw_shard_errors_total", "shard", label))
		g.mHedged = append(g.mHedged, obs.Default().Counter("stalegw_hedged_requests_total", "shard", label))
		g.mHedgeWins = append(g.mHedgeWins, obs.Default().Counter("stalegw_hedge_wins_total", "shard", label))
		g.mFailovers = append(g.mFailovers, obs.Default().Counter("stalegw_failovers_total", "shard", label))
		g.gShardUp = append(g.gShardUp, obs.Default().Gauge("stalegw_shard_up", "shard", label))
		var ups []*obs.Gauge
		for r := range groups[i] {
			ups = append(ups, obs.Default().Gauge("stalegw_replica_up", "shard", label, "replica", strconv.Itoa(r)))
		}
		g.gReplicaUp = append(g.gReplicaUp, ups)
	}
	g.health.Register("shard-quorum", g.QuorumProbe)
	return g, nil
}

// Handler returns the gateway mux. Wrap it in obs.Middleware for RED
// metrics, request IDs and trace propagation into the fan-out legs.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, endpoint := range []string{"certs", "staleness"} {
		mux.HandleFunc("GET /v1/domain/{e2ld}/"+endpoint, func(w http.ResponseWriter, r *http.Request) {
			g.handleOwnerRouted(w, r, endpoint)
		})
	}
	mux.HandleFunc("GET /v1/cert/{fp}", g.handleCert)
	mux.HandleFunc("GET /v1/domains", g.handleDomains)
	mux.HandleFunc("GET /v1/shardmap", g.handleShardmap)
	mux.HandleFunc("GET /healthz", g.health.Healthz)
	mux.HandleFunc("GET /readyz", g.health.Readyz)
	return mux
}

// result is one buffered shard response, the unit the last-good cache holds.
type result struct {
	status int
	ctype  string
	body   []byte
	// staleEvidence is the replica's X-Stale-Evidence header: the body is a
	// last-good verdict, and the relay has to say so as the replica did.
	staleEvidence string
	// slice is the ring index that answered. A fingerprint does not name its
	// owner, so the entry the cache retains for one is also where the next
	// lookup asks first.
	slice int
}

type errorJSON struct {
	Error         string `json:"error"`
	MissingShards []int  `json:"missing_shards,omitempty"`
}

// writeResult relays a shard response. A header the gateway set for its own
// serve-stale stays first; the replica's is added behind it.
func (g *Gateway) writeResult(w http.ResponseWriter, res result) {
	if res.staleEvidence != "" {
		w.Header().Add(obs.StaleEvidenceHeader, res.staleEvidence)
	}
	obs.WriteBody(w, res.status, res.ctype, res.body)
}

// getAddr performs one raw replica call (no per-shard metrics — probes use
// it too).
func (g *Gateway) getAddr(ctx context.Context, addr, pathq string) (result, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+pathq, nil)
	if err != nil {
		return result{}, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return result{}, err
	}
	// A body over the bound is a leg error, never a 200 cut short: half a
	// JSON document would be relayed, or silently dropped from a merge.
	body, err := resil.ReadBody(resp, maxShardBody)
	if err != nil {
		return result{}, err
	}
	return result{status: resp.StatusCode, ctype: resp.Header.Get("Content-Type"), body: body,
		staleEvidence: resp.Header.Get(obs.StaleEvidenceHeader)}, nil
}

// replicaOrder ranks slice idx's replicas for the next call: healthy
// replicas first, rotated per call so load spreads across siblings, then
// unhealthy ones as last resorts (a probe round may be stale — a "down"
// replica can still save a query whose healthy siblings just died).
// Healthy means the last probe round passed (or none ran yet) AND the
// replica's circuit breaker is not open.
func (g *Gateway) replicaOrder(idx int) []int {
	n := len(g.groups[idx])
	if n == 1 {
		return []int{0}
	}
	g.probeMu.Lock()
	probed := g.probed
	errs := append([]error(nil), g.replicaErrs[idx]...)
	g.probeMu.Unlock()
	healthy := make([]int, 0, n)
	down := make([]int, 0, n)
	for r := 0; r < n; r++ {
		ok := !probed || errs[r] == nil
		if ok && g.breakers != nil && g.breakers.For(g.hosts[idx][r]).State() == resil.Open {
			ok = false
		}
		if ok {
			healthy = append(healthy, r)
		} else {
			down = append(down, r)
		}
	}
	if len(healthy) == 0 {
		return down
	}
	start := int(g.rr[idx].Add(1)-1) % len(healthy)
	order := make([]int, 0, n)
	for i := range healthy {
		order = append(order, healthy[(start+i)%len(healthy)])
	}
	return append(order, down...)
}

// fetchSlice is one counted query leg against a slice: the ranked replicas
// are raced through resil.HedgeDo — sequential failover on error, a
// speculative sibling after the hedge delay — and only when every replica
// fails does the slice count as missing. A 5xx from a replica (after the
// resilient client's own retries) is a leg failure, like a transport error.
func (g *Gateway) fetchSlice(ctx context.Context, idx int, pathq string) (result, error) {
	g.mShardReq[idx].Inc()
	order := g.replicaOrder(idx)
	res, stats, err := resil.HedgeDo(ctx, g.hedge, len(order), func(ctx context.Context, leg int) (result, error) {
		r := order[leg]
		res, lerr := g.getAddr(ctx, g.groups[idx][r], pathq)
		if lerr == nil && res.status >= 500 {
			lerr = fmt.Errorf("status %d", res.status)
		}
		if lerr != nil {
			return result{}, fmt.Errorf("shard %d replica %d: %w", idx, r, lerr)
		}
		return res, nil
	})
	if stats.Hedged > 0 {
		g.mHedged[idx].Add(uint64(stats.Hedged))
		if stats.HedgedWin {
			g.mHedgeWins[idx].Inc()
		}
	}
	if stats.Failovers > 0 {
		g.mFailovers[idx].Add(uint64(stats.Failovers))
	}
	if err != nil {
		g.mShardErr[idx].Inc()
		return result{}, err
	}
	res.slice = idx
	return res, nil
}

// missingHeader formats ring indexes for MissingShardsHeader.
func missingHeader(missing []int) string {
	parts := make([]string, len(missing))
	for i, m := range missing {
		parts[i] = strconv.Itoa(m)
	}
	return strings.Join(parts, ",")
}

// markDegraded rewrites a cached JSON body as a degraded verdict: the data
// is last-good, not live, and the payload says so exactly like a staleapid
// serving stale evidence would. A body that was already a replica's
// last-good verdict keeps its own evidence age, plus the gateway's.
func markDegraded(res result, age time.Duration) result {
	var m map[string]any
	if json.Unmarshal(res.body, &m) != nil {
		return res
	}
	if prior, ok := m["evidence_age"].(string); ok {
		if d, err := time.ParseDuration(prior); err == nil {
			age += d
		}
	}
	m["degraded"] = true
	m["evidence_age"] = age.Round(time.Millisecond).String()
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return res
	}
	res.body = append(b, '\n')
	return res
}

// handleOwnerRouted proxies a domain endpoint ("certs" or "staleness") to the
// one shard owning the e2LD, falling back to the last-good cached response
// when that shard is down. The cache key and the upstream path are built from
// the canonical domain, never the request's spelling: neither endpoint takes
// a query, so every casing, trailing dot and query string of one domain is
// one entry and one replica call.
func (g *Gateway) handleOwnerRouted(w http.ResponseWriter, r *http.Request, endpoint string) {
	domain := dnsname.Canonical(r.PathValue("e2ld"))
	if err := dnsname.Check(domain, false); err != nil {
		obs.WriteJSON(w, http.StatusBadRequest, errorJSON{Error: fmt.Sprintf("bad domain: %v", err)})
		return
	}
	idx := g.ring.Lookup(shard.KeyForDomain(domain))
	path := "/v1/domain/" + domain + "/" + endpoint
	res, info, err := g.cached(path, func() (any, error) {
		return g.fetchSlice(r.Context(), idx, path)
	})
	if err != nil {
		w.Header().Set(MissingShardsHeader, strconv.Itoa(idx))
		obs.WriteJSON(w, http.StatusBadGateway, errorJSON{Error: err.Error(), MissingShards: []int{idx}})
		return
	}
	if info.Stale {
		mStaleServed.Inc()
		res = markDegraded(res, info.Age)
		w.Header().Set(MissingShardsHeader, strconv.Itoa(idx))
		w.Header().Set(obs.StaleEvidenceHeader,
			fmt.Sprintf("shard:%d age=%s", idx, info.Age.Round(time.Millisecond)))
	}
	g.writeResult(w, res)
}

// cached answers key from the response cache, running load on a miss. When
// load fails the retained last-good body stands in for it, unless that body
// is older than maxStaleAge: then load's error is returned, as if nothing
// were retained.
func (g *Gateway) cached(key string, load func() (any, error)) (result, lru.CacheInfo, error) {
	v, info, err := g.cache.Do(key, load)
	if err != nil {
		return result{}, info, err
	}
	if info.Stale && info.Age > maxStaleAge {
		return result{}, lru.CacheInfo{}, info.Err
	}
	return v.(result), info, nil
}

// leg is one scatter-gather response.
type leg struct {
	idx int
	res result
	err error
}

// scatter queries every slice in parallel. Each leg picks the slice's first
// healthy replica and retries on siblings (fetchSlice), and each replica
// call rides the resilient client, so it carries its own trace span,
// retries and breaker accounting. A caller that has already asked one slice
// passes that leg in: its outcome is reused, not asked for twice. The first
// slice still to ask runs on the caller's goroutine, whose stack is already
// grown; only the others start one.
func (g *Gateway) scatter(ctx context.Context, pathq string, asked *leg) []leg {
	mFanouts.Inc()
	legs := make([]leg, len(g.groups))
	fetch := func(i int) {
		res, err := g.fetchSlice(ctx, i, pathq)
		legs[i] = leg{idx: i, res: res, err: err}
	}
	var wg sync.WaitGroup
	inline := -1
	for i := range g.groups {
		switch {
		case asked != nil && asked.idx == i:
			legs[i] = *asked
		case inline < 0:
			inline = i
		default:
			wg.Add(1)
			go func() {
				defer wg.Done()
				fetch(i)
			}()
		}
	}
	if inline >= 0 {
		fetch(inline)
	}
	wg.Wait()
	return legs
}

// missingShardsError is a fingerprint scatter that found nothing while some
// slices could not be asked. It carries their indexes in the error, so every
// request sharing the flight — and one degrading to last-good over it —
// reports them, not only the request whose loader ran.
type missingShardsError struct {
	live    int
	missing []int
}

func (e *missingShardsError) Error() string {
	return fmt.Sprintf("fingerprint not found on %d live shards; %d unreachable", e.live, len(e.missing))
}

// lookupCert asks the replicas for a fingerprint. The fingerprint alone
// cannot recover the owning e2LD, so the first lookup asks every slice and
// the hit wins; the entry the cache retains past its TTL remembers which
// slice that was, and the next lookup asks it alone. Whatever it answers but
// a 200 — and a lookup with nothing retained, or storage off — gathers over
// the slices not yet asked, so nothing is decided on the hint's word: a clean
// miss on every slice is an authoritative 404, and a miss while some slice
// could not be asked is not — the answer may live on the dead replicas.
func (g *Gateway) lookupCert(ctx context.Context, key, pathq string) (result, error) {
	var hinted *leg
	v, _ := g.cache.Peek(key)
	if last, ok := v.(result); ok && last.status == http.StatusOK {
		res, err := g.fetchSlice(ctx, last.slice, pathq)
		if err == nil && res.status == http.StatusOK {
			mCertViaHint.Inc()
			return res, nil
		}
		hinted = &leg{idx: last.slice, res: res, err: err}
		mCertViaFallback.Inc()
	} else {
		mCertViaScatter.Inc()
	}
	var missing []int
	for _, l := range g.scatter(ctx, pathq, hinted) {
		if l.err != nil {
			missing = append(missing, l.idx)
		} else if l.res.status == http.StatusOK {
			return l.res, nil
		}
	}
	if len(missing) > 0 {
		return result{}, &missingShardsError{live: len(g.groups) - len(missing), missing: missing}
	}
	return result{status: http.StatusNotFound, ctype: obs.JSONContentType,
		body: []byte("{\n  \"error\": \"unknown fingerprint\"\n}\n")}, nil
}

// handleCert answers a fingerprint lookup from the response cache or, through
// lookupCert, from the slice holding the certificate.
func (g *Gateway) handleCert(w http.ResponseWriter, r *http.Request) {
	fpRaw := r.PathValue("fp")
	if _, _, err := x509sim.ParseFingerprint(fpRaw); err != nil {
		obs.WriteJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error()})
		return
	}
	// Cache under the normalized fingerprint identity, so the 16-hex short
	// and 64-hex full spellings of one certificate share one entry — and one
	// hint. The upstream path keeps the request's spelling; a replica answers
	// both.
	key := "cert:" + shard.KeyForFingerprint(fpRaw)
	res, info, err := g.cached(key, func() (any, error) {
		return g.lookupCert(r.Context(), key, "/v1/cert/"+fpRaw)
	})
	var missing []int
	var me *missingShardsError
	if errors.As(cmp.Or(err, info.Err), &me) {
		missing = me.missing
	}
	if err != nil {
		mPartial.Inc()
		w.Header().Set(MissingShardsHeader, missingHeader(missing))
		obs.WriteJSON(w, http.StatusBadGateway, errorJSON{Error: err.Error(), MissingShards: missing})
		return
	}
	if info.Stale {
		mStaleServed.Inc()
		if len(missing) > 0 {
			w.Header().Set(MissingShardsHeader, missingHeader(missing))
		}
		w.Header().Set(obs.StaleEvidenceHeader,
			fmt.Sprintf("cert:%s age=%s", fpRaw, info.Age.Round(time.Millisecond)))
		res = markDegraded(res, info.Age)
	}
	g.writeResult(w, res)
}

// DomainsResponse is the gateway's merged /v1/domains payload: the shards'
// listings, disjoint because each lists only the e2LDs it owns, merged and
// sorted, plus the degradation markers partial results carry.
type DomainsResponse struct {
	Domains       []string `json:"domains"`
	Total         int      `json:"total"`
	Degraded      bool     `json:"degraded,omitempty"`
	MissingShards []int    `json:"missing_shards,omitempty"`
}

// handleDomains scatter-merges the per-shard listings. Dead shards degrade
// the result (their slice of the namespace is simply absent, and the
// response says so) rather than failing it — unless every shard is dead.
func (g *Gateway) handleDomains(w http.ResponseWriter, r *http.Request) {
	limit := 100
	if ls := r.URL.Query().Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n <= 0 {
			obs.WriteJSON(w, http.StatusBadRequest, errorJSON{Error: "bad limit"})
			return
		}
		limit = min(n, 10000)
	}
	legs := g.scatter(r.Context(), r.URL.RequestURI(), nil)
	merged := DomainsResponse{Domains: []string{}}
	for _, l := range legs {
		if l.err != nil {
			merged.MissingShards = append(merged.MissingShards, l.idx)
			continue
		}
		var dr DomainsResponse
		if uerr := json.Unmarshal(l.res.body, &dr); uerr != nil || l.res.status != http.StatusOK {
			merged.MissingShards = append(merged.MissingShards, l.idx)
			continue
		}
		merged.Total += dr.Total
		merged.Domains = append(merged.Domains, dr.Domains...)
	}
	if len(merged.MissingShards) == len(g.groups) {
		obs.WriteJSON(w, http.StatusBadGateway, errorJSON{Error: "all shards unreachable", MissingShards: merged.MissingShards})
		return
	}
	sort.Strings(merged.Domains)
	if len(merged.Domains) > limit {
		merged.Domains = merged.Domains[:limit]
	}
	if len(merged.MissingShards) > 0 {
		mPartial.Inc()
		merged.Degraded = true
		w.Header().Set(MissingShardsHeader, missingHeader(merged.MissingShards))
	}
	obs.WriteJSON(w, http.StatusOK, merged)
}

// handleShardmap serves the gateway's full topology document — the fleet
// view, where each staleapid serves only its own slice.
func (g *Gateway) handleShardmap(w http.ResponseWriter, _ *http.Request) {
	obs.WriteJSON(w, http.StatusOK, g.m)
}

// probeReplica checks one replica of one slice is ready AND agrees with the
// gateway's map: a live replica holding a different ring (wrong epoch,
// vnodes, slice...) would silently mis-route, so it counts as down.
func (g *Gateway) probeReplica(ctx context.Context, idx, r int) error {
	addr := g.groups[idx][r]
	res, err := g.getAddr(ctx, addr, "/readyz")
	if err != nil {
		return fmt.Errorf("shard %d replica %d: %w", idx, r, err)
	}
	if res.status != http.StatusOK {
		return fmt.Errorf("shard %d replica %d: readyz status %d", idx, r, res.status)
	}
	res, err = g.getAddr(ctx, addr, "/v1/shardmap")
	if err != nil {
		return fmt.Errorf("shard %d replica %d: %w", idx, r, err)
	}
	if res.status != http.StatusOK {
		return fmt.Errorf("shard %d replica %d: shardmap status %d", idx, r, res.status)
	}
	var self shard.Self
	if err := json.Unmarshal(res.body, &self); err != nil {
		return fmt.Errorf("shard %d replica %d: bad shardmap document: %w", idx, r, err)
	}
	if err := g.m.Agrees(idx, self); err != nil {
		return fmt.Errorf("replica %d: %w", r, err)
	}
	return nil
}

// ProbeOnce runs one probe round over every replica of every slice,
// updating the liveness state behind QuorumProbe (and replicaOrder) and the
// stalegw_shard_up / stalegw_replica_up gauges.
func (g *Gateway) ProbeOnce(ctx context.Context) {
	errs := make([][]error, len(g.groups))
	var wg sync.WaitGroup
	for i := range g.groups {
		errs[i] = make([]error, len(g.groups[i]))
		for r := range g.groups[i] {
			wg.Add(1)
			go func(i, r int) {
				defer wg.Done()
				errs[i][r] = g.probeReplica(ctx, i, r)
			}(i, r)
		}
	}
	wg.Wait()
	g.probeMu.Lock()
	g.probed = true
	for i := range errs {
		copy(g.replicaErrs[i], errs[i])
	}
	g.probeMu.Unlock()
	for i := range errs {
		sliceUp := false
		for r, err := range errs[i] {
			if err == nil {
				sliceUp = true
				g.gReplicaUp[i][r].Set(1)
			} else {
				g.gReplicaUp[i][r].Set(0)
			}
		}
		if sliceUp {
			g.gShardUp[i].Set(1)
		} else {
			g.gShardUp[i].Set(0)
		}
	}
}

// RunProbes probes every interval until the context is cancelled; the first
// round runs immediately so readiness settles at startup.
func (g *Gateway) RunProbes(ctx context.Context, interval time.Duration) {
	for {
		g.ProbeOnce(ctx)
		select {
		case <-ctx.Done():
			return
		case <-time.After(interval):
		}
	}
}

// QuorumProbe is the gateway's readiness, computed over slices, not
// processes: a slice is up while at least one of its replicas passed the
// last probe round, so losing one replica of a replicated slice keeps the
// fleet fully ready. All slices up → ready; at least the quorum up →
// degraded (200 — partial answers still serve); below quorum, or before the
// first probe round, → unready (503).
func (g *Gateway) QuorumProbe(context.Context) error {
	g.probeMu.Lock()
	defer g.probeMu.Unlock()
	if !g.probed {
		return errors.New("no shard probe round completed yet")
	}
	up := 0
	var firstDown error
	for _, errs := range g.replicaErrs {
		sliceUp := false
		var sliceErr error
		for _, err := range errs {
			if err == nil {
				sliceUp = true
				break
			} else if sliceErr == nil {
				sliceErr = err
			}
		}
		if sliceUp {
			up++
		} else if firstDown == nil {
			firstDown = sliceErr
		}
	}
	n := len(g.replicaErrs)
	switch {
	case up == n:
		return nil
	case up >= g.quorum:
		return obs.Degraded(fmt.Errorf("%d/%d slices up (quorum %d): %v", up, n, g.quorum, firstDown))
	default:
		return fmt.Errorf("%d/%d slices up, below quorum %d: %v", up, n, g.quorum, firstDown)
	}
}
