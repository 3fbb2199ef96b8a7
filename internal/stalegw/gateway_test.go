package stalegw

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stalecert/internal/obs"
	"stalecert/internal/resil"
	"stalecert/internal/shard"
	"stalecert/internal/x509sim"
)

// fakeShard is one scripted staleapid replica: readyz, a consistent
// /v1/shardmap self-report, and whatever /v1 handlers the test wires.
type fakeShard struct {
	ts   *httptest.Server
	hits atomic.Int64
}

func newFakeShard(t *testing.T, idx, count int, epoch uint64, wire func(mux *http.ServeMux)) *fakeShard {
	t.Helper()
	f := &fakeShard{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /v1/shardmap", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(shard.Self{
			Version: shard.MapVersion, Epoch: epoch, Hash: shard.HashName,
			VNodes: shard.DefaultVNodes, Shard: shard.Assignment{Index: idx, Count: count},
		})
	})
	if wire != nil {
		wire(mux)
	}
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			f.hits.Add(1)
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(f.ts.Close)
	return f
}

// newFleet builds n fake shards plus a gateway over them.
func newFleet(t *testing.T, n int, cfg Config, wire func(idx int, mux *http.ServeMux)) ([]*fakeShard, *Gateway) {
	t.Helper()
	shards := make([]*fakeShard, n)
	groups := make([][]string, n)
	for i := range shards {
		i := i
		shards[i] = newFakeShard(t, i, n, shard.Epoch, func(mux *http.ServeMux) {
			if wire != nil {
				wire(i, mux)
			}
		})
		groups[i] = []string{shards[i].ts.URL}
	}
	return shards, newGateway(t, groups, cfg)
}

// newGateway builds a gateway over the replica groups, written as a -shards
// text, with its own health registry and, unless cfg has one, the default
// HTTP client.
func newGateway(t testing.TB, groups [][]string, cfg Config) *Gateway {
	t.Helper()
	slices := make([]string, len(groups))
	for i, g := range groups {
		slices[i] = strings.Join(g, "|")
	}
	cfg.Shards = strings.Join(slices, ",")
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	cfg.Health = obs.NewHealth()
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gw
}

func gwGet(t *testing.T, gw *Gateway, path string) (*http.Response, []byte) {
	t.Helper()
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// Owner-routed queries must hit exactly the ring owner, no other shard.
func TestOwnerRouting(t *testing.T) {
	const n = 3
	shards, gw := newFleet(t, n, Config{}, func(idx int, mux *http.ServeMux) {
		mux.HandleFunc("GET /v1/domain/{e2ld}/staleness", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, `{"domain":%q,"shard":%d}`, r.PathValue("e2ld"), idx)
		})
	})
	ring := shard.MustRing(n, shard.DefaultVNodes)
	for i := 0; i < 20; i++ {
		domain := fmt.Sprintf("routed%02d.com", i)
		owner := ring.Lookup(shard.KeyForDomain(domain))
		before := shards[owner].hits.Load()
		resp, body := gwGet(t, gw, "/v1/domain/"+domain+"/staleness")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", domain, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), fmt.Sprintf(`"shard":%d`, owner)) {
			t.Fatalf("%s answered by the wrong shard: %s (owner %d)", domain, body, owner)
		}
		if shards[owner].hits.Load() != before+1 {
			t.Fatalf("%s: owner %d not hit exactly once", domain, owner)
		}
		for j, f := range shards {
			if j != owner && f.hits.Load() != 0 {
				t.Fatalf("%s leaked to non-owner shard %d", domain, j)
			}
		}
		for _, f := range shards {
			f.hits.Store(0)
		}
	}

	resp, _ := gwGet(t, gw, "/v1/domain/!!bad!!/staleness")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad domain status = %d", resp.StatusCode)
	}
}

// Fingerprint lookups scatter to every shard; the single hit wins, a clean
// all-shard miss is 404, and both fingerprint spellings share one cache
// entry.
func TestCertScatter(t *testing.T) {
	cert, err := x509sim.New(42, 1, 42, []string{"scattered.com"}, 100, 500)
	if err != nil {
		t.Fatal(err)
	}
	fp := cert.Fingerprint()
	const holder = 2
	shards, gw := newFleet(t, 3, Config{}, func(idx int, mux *http.ServeMux) {
		mux.HandleFunc("GET /v1/cert/{fp}", func(w http.ResponseWriter, r *http.Request) {
			got := r.PathValue("fp")
			if idx != holder || (got != fp.Hex() && got != fp.String()) {
				w.WriteHeader(http.StatusNotFound)
				fmt.Fprint(w, `{"error":"unknown fingerprint"}`)
				return
			}
			fmt.Fprintf(w, `{"fingerprint":%q}`, fp.Hex())
		})
	})

	resp, body := gwGet(t, gw, "/v1/cert/"+fp.Hex())
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), fp.Hex()) {
		t.Fatalf("scatter lookup = %d: %s", resp.StatusCode, body)
	}
	for _, f := range shards {
		if f.hits.Load() != 1 {
			t.Fatal("scatter did not reach every shard exactly once")
		}
	}
	if gw.cache.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", gw.cache.Len())
	}

	// The short form is the same identity: cache hit, no second fan-out.
	resp, _ = gwGet(t, gw, "/v1/cert/"+fp.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("short form status = %d", resp.StatusCode)
	}
	if gw.cache.Len() != 1 {
		t.Fatalf("cache holds %d entries after both spellings, want 1", gw.cache.Len())
	}
	for _, f := range shards {
		if f.hits.Load() != 1 {
			t.Fatal("short-form lookup re-scattered instead of hitting the cache")
		}
	}

	resp, _ = gwGet(t, gw, "/v1/cert/"+strings.Repeat("ee", 32))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("all-shard miss status = %d, want 404", resp.StatusCode)
	}
	resp, _ = gwGet(t, gw, "/v1/cert/nothex")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed fp status = %d", resp.StatusCode)
	}
}

// A miss with a dead shard in the fan-out is NOT an authoritative 404: the
// answer may live on the dead replica, so the gateway says 502 + missing.
func TestCertScatterPartialMiss(t *testing.T) {
	shards, gw := newFleet(t, 3, Config{}, func(idx int, mux *http.ServeMux) {
		mux.HandleFunc("GET /v1/cert/{fp}", func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":"unknown fingerprint"}`)
		})
	})
	shards[1].ts.Close()
	resp, body := gwGet(t, gw, "/v1/cert/"+strings.Repeat("ab", 32))
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(MissingShardsHeader); got != "1" {
		t.Fatalf("%s = %q, want 1", MissingShardsHeader, got)
	}
}

// The domains listing merges every shard's slice; a dead shard degrades the
// merge (missing slice, marked) instead of failing it.
func TestDomainsScatterMerge(t *testing.T) {
	lists := [][]string{
		{"alpha.com", "delta.com"},
		{"beta.org"},
		{"gamma.net", "omega.io"},
	}
	shards, gw := newFleet(t, 3, Config{}, func(idx int, mux *http.ServeMux) {
		mux.HandleFunc("GET /v1/domains", func(w http.ResponseWriter, _ *http.Request) {
			_ = json.NewEncoder(w).Encode(map[string]any{"domains": lists[idx], "total": len(lists[idx])})
		})
	})

	resp, body := gwGet(t, gw, "/v1/domains")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var dr DomainsResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Total != 5 || len(dr.Domains) != 5 || dr.Degraded ||
		dr.Domains[0] != "alpha.com" || dr.Domains[4] != "omega.io" {
		t.Fatalf("merged = %+v", dr)
	}

	shards[2].ts.Close()
	resp, body = gwGet(t, gw, "/v1/domains")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial status = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if !dr.Degraded || dr.Total != 3 || len(dr.MissingShards) != 1 || dr.MissingShards[0] != 2 {
		t.Fatalf("degraded merge = %+v", dr)
	}
	if got := resp.Header.Get(MissingShardsHeader); got != "2" {
		t.Fatalf("%s = %q, want 2", MissingShardsHeader, got)
	}
}

// When the owner shard dies, its last-good cached response keeps serving —
// marked degraded, with the stale-evidence and missing-shard headers.
func TestOwnerServeStaleDegraded(t *testing.T) {
	const n = 3
	shards, gw := newFleet(t, n, Config{CacheTTL: 30 * time.Millisecond}, func(idx int, mux *http.ServeMux) {
		mux.HandleFunc("GET /v1/domain/{e2ld}/staleness", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, `{"domain":%q,"stale":[]}`, r.PathValue("e2ld"))
		})
	})
	ring := shard.MustRing(n, shard.DefaultVNodes)
	domain := "lastgood.com"
	owner := ring.Lookup(shard.KeyForDomain(domain))

	resp, _ := gwGet(t, gw, "/v1/domain/"+domain+"/staleness")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up status = %d", resp.StatusCode)
	}

	shards[owner].ts.Close()
	time.Sleep(60 * time.Millisecond) // let the cached entry expire

	resp, body := gwGet(t, gw, "/v1/domain/"+domain+"/staleness")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("serve-stale status = %d: %s", resp.StatusCode, body)
	}
	var payload map[string]any
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatal(err)
	}
	if payload["degraded"] != true || payload["evidence_age"] == nil {
		t.Fatalf("degraded markers missing: %s", body)
	}
	if got := resp.Header.Get(MissingShardsHeader); got != fmt.Sprint(owner) {
		t.Fatalf("%s = %q, want %d", MissingShardsHeader, got, owner)
	}
	if resp.Header.Get(obs.StaleEvidenceHeader) == "" {
		t.Fatal("no X-Stale-Evidence header on stale-served response")
	}

	// A domain with nothing cached and a dead owner is an honest 502.
	cold := ""
	for i := 0; cold == ""; i++ {
		d := fmt.Sprintf("cold%02d.com", i)
		if ring.Lookup(shard.KeyForDomain(d)) == owner {
			cold = d
		}
	}
	resp, _ = gwGet(t, gw, "/v1/domain/"+cold+"/staleness")
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("cold dead-owner status = %d, want 502", resp.StatusCode)
	}
}

// Readiness is quorum-based over probe rounds, and a shard whose /v1/shardmap
// self-report disagrees with the gateway's topology counts as down.
func TestQuorumReadiness(t *testing.T) {
	shards, gw := newFleet(t, 3, Config{Quorum: 2}, nil)
	ctx := context.Background()

	if err := gw.QuorumProbe(ctx); err == nil {
		t.Fatal("ready before any probe round")
	}
	gw.ProbeOnce(ctx)
	if err := gw.QuorumProbe(ctx); err != nil {
		t.Fatalf("all-up fleet not ready: %v", err)
	}

	shards[0].ts.Close()
	gw.ProbeOnce(ctx)
	err := gw.QuorumProbe(ctx)
	if err == nil || !obs.IsDegraded(err) {
		t.Fatalf("2/3 up: err = %v, want degraded", err)
	}

	shards[1].ts.Close()
	gw.ProbeOnce(ctx)
	err = gw.QuorumProbe(ctx)
	if err == nil || obs.IsDegraded(err) {
		t.Fatalf("1/3 up: err = %v, want hard unready", err)
	}

	// A mis-mapped replica (wrong epoch) is down even though it's serving.
	wrong := newFakeShard(t, 0, 2, shard.Epoch+1, nil)
	right := newFakeShard(t, 1, 2, shard.Epoch, nil)
	gw2 := newGateway(t, [][]string{{wrong.ts.URL}, {right.ts.URL}}, Config{Quorum: 1})
	gw2.ProbeOnce(ctx)
	if err := gw2.QuorumProbe(ctx); err == nil || !obs.IsDegraded(err) {
		t.Fatalf("mis-mapped shard: err = %v, want degraded (1/2 up)", err)
	}
}

// newReplicatedFleet builds n slices with reps replicas each plus a gateway.
// Returns shards indexed [slice][replica].
func newReplicatedFleet(t *testing.T, n, reps int, cfg Config, wire func(slice, replica int, mux *http.ServeMux)) ([][]*fakeShard, *Gateway) {
	t.Helper()
	shards := make([][]*fakeShard, n)
	groups := make([][]string, n)
	for i := range shards {
		for r := 0; r < reps; r++ {
			i, r := i, r
			f := newFakeShard(t, i, n, shard.Epoch, func(mux *http.ServeMux) {
				if wire != nil {
					wire(i, r, mux)
				}
			})
			shards[i] = append(shards[i], f)
			groups[i] = append(groups[i], f.ts.URL)
		}
	}
	return shards, newGateway(t, groups, cfg)
}

// domainsOwnedBy returns count distinct domains the ring places on slice idx.
func domainsOwnedBy(t *testing.T, n, idx, count int) []string {
	t.Helper()
	ring := shard.MustRing(n, shard.DefaultVNodes)
	var out []string
	for i := 0; len(out) < count && i < 10000; i++ {
		d := fmt.Sprintf("owned%04d.com", i)
		if ring.Lookup(shard.KeyForDomain(d)) == idx {
			out = append(out, d)
		}
	}
	if len(out) < count {
		t.Fatal("could not find enough domains for the slice")
	}
	return out
}

// Killing one replica of a slice must be invisible: owner routes fail over
// to the sibling, answers stay 200 and non-degraded, and the failover
// counter advances.
func TestReplicaFailoverOnDeath(t *testing.T) {
	shards, gw := newReplicatedFleet(t, 2, 2, Config{}, func(slice, replica int, mux *http.ServeMux) {
		mux.HandleFunc("GET /v1/domain/{e2ld}/staleness", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, `{"domain":%q,"slice":%d}`, r.PathValue("e2ld"), slice)
		})
	})
	failovers := obs.Default().Counter("stalegw_failovers_total", "shard", "0")
	before := failovers.Value()

	shards[0][0].ts.Close() // no probe round yet: the gateway can't know

	for _, d := range domainsOwnedBy(t, 2, 0, 6) {
		resp, body := gwGet(t, gw, "/v1/domain/"+d+"/staleness")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", d, resp.StatusCode, body)
		}
		if strings.Contains(string(body), "degraded") {
			t.Fatalf("%s: degraded answer with a live sibling: %s", d, body)
		}
		if got := resp.Header.Get(MissingShardsHeader); got != "" {
			t.Fatalf("%s: %s = %q with a live sibling", d, MissingShardsHeader, got)
		}
	}
	// Round-robin put the dead replica first on ~half the calls; each such
	// call failed over to the sibling.
	if failovers.Value() == before {
		t.Fatal("failover counter did not advance")
	}
}

// After a probe round marks a replica down, replicaOrder puts it last: no
// failovers are needed any more, the sibling is dialed first.
func TestReplicaOrderAfterProbe(t *testing.T) {
	shards, gw := newReplicatedFleet(t, 2, 2, Config{}, func(slice, replica int, mux *http.ServeMux) {
		mux.HandleFunc("GET /v1/domain/{e2ld}/staleness", func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprint(w, `{"ok":true}`)
		})
	})
	shards[0][1].ts.Close()
	gw.ProbeOnce(context.Background())
	shards[0][0].hits.Store(0) // the probe's own /v1/shardmap hit

	failovers := obs.Default().Counter("stalegw_failovers_total", "shard", "0")
	before := failovers.Value()
	for _, d := range domainsOwnedBy(t, 2, 0, 6) {
		resp, _ := gwGet(t, gw, "/v1/domain/"+d+"/staleness")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", d, resp.StatusCode)
		}
	}
	if got := failovers.Value(); got != before {
		t.Fatalf("%d failovers after the probe marked the replica down, want 0", got-before)
	}
	if hits := shards[0][0].hits.Load(); hits != 6 {
		t.Fatalf("live replica served %d of 6 queries", hits)
	}
}

// A slow replica is hedged: after HedgeAfter the sibling is raced and its
// fast answer wins, visible in the hedge counters.
func TestReplicaHedging(t *testing.T) {
	slow := 0 // replica 0 of every slice answers slowly
	shards, gw := newReplicatedFleet(t, 2, 2, Config{HedgeAfter: 2 * time.Millisecond},
		func(slice, replica int, mux *http.ServeMux) {
			mux.HandleFunc("GET /v1/domain/{e2ld}/staleness", func(w http.ResponseWriter, r *http.Request) {
				if replica == slow {
					select {
					case <-r.Context().Done():
						return
					case <-time.After(300 * time.Millisecond):
					}
				}
				fmt.Fprint(w, `{"ok":true}`)
			})
		})
	_ = shards
	hedged := obs.Default().Counter("stalegw_hedged_requests_total", "shard", "0")
	wins := obs.Default().Counter("stalegw_hedge_wins_total", "shard", "0")
	beforeHedged, beforeWins := hedged.Value(), wins.Value()

	for _, d := range domainsOwnedBy(t, 2, 0, 6) {
		start := time.Now()
		resp, _ := gwGet(t, gw, "/v1/domain/"+d+"/staleness")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", d, resp.StatusCode)
		}
		if time.Since(start) > 250*time.Millisecond {
			t.Fatalf("%s: waited out the slow replica instead of hedging", d)
		}
	}
	if hedged.Value() == beforeHedged {
		t.Fatal("hedged-requests counter did not advance")
	}
	if wins.Value() == beforeWins {
		t.Fatal("hedge-wins counter did not advance")
	}
}

// Readiness is per-slice: one dead replica of a replicated slice keeps the
// fleet fully ready; a fully-dead slice degrades it.
func TestPerSliceQuorumReadiness(t *testing.T) {
	shards, gw := newReplicatedFleet(t, 2, 2, Config{Quorum: 1}, nil)
	ctx := context.Background()
	gw.ProbeOnce(ctx)
	if err := gw.QuorumProbe(ctx); err != nil {
		t.Fatalf("all-up fleet not ready: %v", err)
	}

	shards[0][0].ts.Close()
	gw.ProbeOnce(ctx)
	if err := gw.QuorumProbe(ctx); err != nil {
		t.Fatalf("1 dead replica of 2: err = %v, want fully ready", err)
	}
	if v := obs.Default().Gauge("stalegw_replica_up", "shard", "0", "replica", "0").Value(); v != 0 {
		t.Fatalf("replica_up{0,0} = %v, want 0", v)
	}
	if v := obs.Default().Gauge("stalegw_replica_up", "shard", "0", "replica", "1").Value(); v != 1 {
		t.Fatalf("replica_up{0,1} = %v, want 1", v)
	}
	if v := obs.Default().Gauge("stalegw_shard_up", "shard", "0").Value(); v != 1 {
		t.Fatalf("shard_up{0} = %v, want 1 (slice still has a live replica)", v)
	}

	shards[0][1].ts.Close()
	gw.ProbeOnce(ctx)
	err := gw.QuorumProbe(ctx)
	if err == nil || !obs.IsDegraded(err) {
		t.Fatalf("dead slice with quorum 1: err = %v, want degraded", err)
	}
	if v := obs.Default().Gauge("stalegw_shard_up", "shard", "0").Value(); v != 0 {
		t.Fatalf("shard_up{0} = %v, want 0", v)
	}
}

// Scatter legs fail over per-slice too: a dead replica must not punch an
// X-Missing-Shards hole while its sibling lives.
func TestScatterReplicaFailover(t *testing.T) {
	lists := [][]string{{"alpha.com"}, {"beta.org"}}
	shards, gw := newReplicatedFleet(t, 2, 2, Config{}, func(slice, replica int, mux *http.ServeMux) {
		mux.HandleFunc("GET /v1/domains", func(w http.ResponseWriter, _ *http.Request) {
			_ = json.NewEncoder(w).Encode(map[string]any{"domains": lists[slice], "total": len(lists[slice])})
		})
	})
	shards[1][0].ts.Close()
	for i := 0; i < 4; i++ { // both round-robin phases
		resp, body := gwGet(t, gw, "/v1/domains")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var dr DomainsResponse
		if err := json.Unmarshal(body, &dr); err != nil {
			t.Fatal(err)
		}
		if dr.Degraded || dr.Total != 2 || len(dr.Domains) != 2 {
			t.Fatalf("degraded merge with live siblings: %+v", dr)
		}
	}
}

// A dead slice's last-good body is served for ten minutes and no longer, on
// the owner-routed and the fingerprint path alike: younger, a degraded 200
// with both headers; older, a 502 naming the slice.
func TestLastGoodAgeBound(t *testing.T) {
	fp := strings.Repeat("ef", 32)
	clock := resil.NewFakeClock(time.Unix(1_700_000_000, 0))
	shards, gw := newFleet(t, 2, Config{CacheTTL: time.Minute, Clock: clock}, func(idx int, mux *http.ServeMux) {
		mux.HandleFunc("GET /v1/domain/{e2ld}/staleness", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, `{"domain":%q}`, r.PathValue("e2ld"))
		})
		mux.HandleFunc("GET /v1/cert/{fp}", func(w http.ResponseWriter, _ *http.Request) {
			if idx != 1 {
				w.WriteHeader(http.StatusNotFound)
				return
			}
			fmt.Fprintf(w, `{"fingerprint":%q}`, fp)
		})
	})
	paths := []string{"/v1/domain/" + domainsOwnedBy(t, 2, 1, 1)[0] + "/staleness", "/v1/cert/" + fp}
	for _, p := range paths {
		if resp, body := gwGet(t, gw, p); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s warm-up: status %d: %s", p, resp.StatusCode, body)
		}
	}
	shards[1].ts.Close()

	clock.Advance(maxStaleAge - time.Second)
	for _, p := range paths {
		resp, body := gwGet(t, gw, p)
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"degraded": true`) ||
			resp.Header.Get(MissingShardsHeader) != "1" || resp.Header.Get(obs.StaleEvidenceHeader) == "" {
			t.Fatalf("%s inside the bound: status %d, %s %q, %s %q: %s; want the degraded last-good body", p,
				resp.StatusCode, MissingShardsHeader, resp.Header.Get(MissingShardsHeader),
				obs.StaleEvidenceHeader, resp.Header.Get(obs.StaleEvidenceHeader), body)
		}
	}

	clock.Advance(2 * time.Second)
	for _, p := range paths {
		resp, body := gwGet(t, gw, p)
		var ej errorJSON
		if err := json.Unmarshal(body, &ej); err != nil {
			t.Fatalf("%s: %v: %s", p, err, body)
		}
		if resp.StatusCode != http.StatusBadGateway || resp.Header.Get(MissingShardsHeader) != "1" ||
			len(ej.MissingShards) != 1 || ej.MissingShards[0] != 1 {
			t.Fatalf("%s past the bound: status %d, %s %q: %s; want a 502 naming slice 1", p,
				resp.StatusCode, MissingShardsHeader, resp.Header.Get(MissingShardsHeader), body)
		}
	}
}

// The gateway's relay cache reports under the gateway's own names, and no
// staleapid family shows in the gateway's registry.
func TestCacheMetricsAreTheGateways(t *testing.T) {
	newFleet(t, 1, Config{}, nil)
	var hits bool
	for _, s := range obs.Default().Snapshot() {
		if strings.HasPrefix(s.Name, "staleapi_") {
			t.Errorf("the gateway's registry holds %s", s.FullName())
		}
		hits = hits || s.Name == "stalegw_cache_hits_total"
	}
	if !hits {
		t.Error("the gateway's registry has no stalegw_cache_hits_total")
	}
}
