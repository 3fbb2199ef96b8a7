package stalegw

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stalecert/internal/obs"
	"stalecert/internal/resil"
	"stalecert/internal/shard"
)

const hintTTL = time.Millisecond

// expire sleeps past the gateway's response-cache TTL, so the next lookup
// reaches the replicas with the last answer retained but no longer fresh.
func expire() { time.Sleep(5 * hintTTL) }

// holders maps the 16-hex prefix of a fingerprint to the slices that hold it
// right now.
type holders struct {
	mu sync.Mutex
	m  map[string][]int
}

func (h *holders) set(fp string, slices ...int) *holders {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.m == nil {
		h.m = map[string][]int{}
	}
	h.m[fp[:16]] = slices
	return h
}

func (h *holders) of(fp string) []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.m[fp[:16]]
}

// certFleet is n fake slices answering /v1/cert/{fp} from held.
func certFleet(t *testing.T, n int, cfg Config, held *holders) ([]*fakeShard, *Gateway) {
	t.Helper()
	if cfg.CacheTTL == 0 {
		cfg.CacheTTL = hintTTL
	}
	return newFleet(t, n, cfg, func(idx int, mux *http.ServeMux) {
		mux.HandleFunc("GET /v1/cert/{fp}", func(w http.ResponseWriter, r *http.Request) {
			fp := strings.ToLower(r.PathValue("fp"))
			for _, h := range held.of(fp) {
				if h == idx {
					fmt.Fprintf(w, `{"fingerprint_short":%q,"slice":%d}`, fp[:16], idx)
					return
				}
			}
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":"unknown fingerprint"}`)
		})
	})
}

// asked returns each slice's /v1 hit count since the last call and resets it.
func asked(shards []*fakeShard) []int64 {
	out := make([]int64, len(shards))
	for i, f := range shards {
		out[i] = f.hits.Swap(0)
	}
	return out
}

func wantAsked(t *testing.T, what string, shards []*fakeShard, want ...int64) {
	t.Helper()
	if got := asked(shards); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: slices asked %v times, want %v", what, got, want)
	}
}

// via reads the three stalegw_cert_lookups_total series.
func via() map[string]uint64 {
	out := map[string]uint64{}
	for _, v := range []string{"hint", "scatter", "fallback"} {
		out[v] = obs.Default().Counter("stalegw_cert_lookups_total", "via", v).Value()
	}
	return out
}

func wantVia(t *testing.T, what string, before map[string]uint64, hint, scatter, fallback uint64) {
	t.Helper()
	now := via()
	got := [3]uint64{now["hint"] - before["hint"], now["scatter"] - before["scatter"], now["fallback"] - before["fallback"]}
	if got != [3]uint64{hint, scatter, fallback} {
		t.Fatalf("%s: lookups via hint/scatter/fallback = %v, want %v", what, got, [3]uint64{hint, scatter, fallback})
	}
}

// A cold lookup scatters once; every later one — past the TTL, in either
// spelling — asks only the slice that answered.
func TestCertHintAsksOnlyTheAnsweringSlice(t *testing.T) {
	full := strings.Repeat("a1", 32)
	shards, gw := certFleet(t, 3, Config{}, new(holders).set(full, 2))
	before := via()

	if resp, body := gwGet(t, gw, "/v1/cert/"+full); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold lookup: status %d: %s", resp.StatusCode, body)
	}
	wantAsked(t, "cold lookup", shards, 1, 1, 1)
	wantVia(t, "cold lookup", before, 0, 1, 0)

	for i, spelling := range []string{full, full[:16], strings.ToUpper(full)} {
		expire()
		resp, body := gwGet(t, gw, "/v1/cert/"+spelling)
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"slice":2`) {
			t.Fatalf("hinted lookup %q: status %d: %s", spelling, resp.StatusCode, body)
		}
		wantAsked(t, "hinted lookup "+spelling, shards, 0, 0, 1)
		wantVia(t, "hinted lookup "+spelling, before, uint64(i+1), 1, 0)
	}
	if n := gw.cache.Len(); n != 1 {
		t.Fatalf("cache holds %d entries for one certificate, want 1", n)
	}
}

// The hinted slice no longer has the certificate: its 404 is one leg of a
// gather over the others, the answer is the new holder's, and so is the next
// hint. No slice is asked twice for one lookup.
func TestCertHintMissGathersOverTheRest(t *testing.T) {
	full := strings.Repeat("b2", 32)
	held := new(holders).set(full, 0)
	shards, gw := certFleet(t, 3, Config{}, held)
	gwGet(t, gw, "/v1/cert/"+full)
	asked(shards)
	before := via()

	held.set(full, 1)
	expire()
	resp, body := gwGet(t, gw, "/v1/cert/"+full)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"slice":1`) {
		t.Fatalf("lookup after the move: status %d: %s", resp.StatusCode, body)
	}
	wantAsked(t, "lookup after the move", shards, 1, 1, 1)
	wantVia(t, "lookup after the move", before, 0, 0, 1)

	expire()
	gwGet(t, gw, "/v1/cert/"+full)
	wantAsked(t, "lookup after the fallback", shards, 0, 1, 0)
	wantVia(t, "lookup after the fallback", before, 1, 0, 1)
}

// The hinted slice is dead. A certificate naming two registrable domains
// lives on two slices and is served, whole and not degraded, from the other
// one; a certificate that lived only on the dead slice degrades to its
// last-good body with the dead slice named. Neither asks a slice twice.
func TestCertHintDeadSlice(t *testing.T) {
	twin, lone := strings.Repeat("c3", 32), strings.Repeat("d4", 32)
	shards, gw := certFleet(t, 3, Config{}, new(holders).set(twin, 0, 2).set(lone, 0))
	for _, fp := range []string{twin, lone} {
		if resp, body := gwGet(t, gw, "/v1/cert/"+fp); resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"slice":0`) {
			t.Fatalf("warm-up %s: status %d: %s", fp[:4], resp.StatusCode, body)
		}
	}
	shards[0].ts.Close()
	asked(shards)
	before := via()
	expire()

	resp, body := gwGet(t, gw, "/v1/cert/"+twin)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"slice":2`) || strings.Contains(string(body), "degraded") {
		t.Fatalf("two-slice certificate with its hinted holder dead: status %d: %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get(MissingShardsHeader); h != "" {
		t.Fatalf("%s = %q on a complete answer", MissingShardsHeader, h)
	}
	wantAsked(t, "two-slice certificate", shards, 0, 1, 1)
	wantVia(t, "two-slice certificate", before, 0, 0, 1)

	resp, body = gwGet(t, gw, "/v1/cert/"+lone)
	var payload struct {
		Degraded bool `json:"degraded"`
		Slice    int  `json:"slice"`
	}
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatalf("%v: %s", err, body)
	}
	if resp.StatusCode != http.StatusOK || !payload.Degraded || payload.Slice != 0 {
		t.Fatalf("certificate on the dead slice only: status %d: %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get(MissingShardsHeader); h != "0" {
		t.Fatalf("%s = %q, want 0", MissingShardsHeader, h)
	}
	wantAsked(t, "certificate on the dead slice only", shards, 0, 1, 1)

	// With nothing retained the same miss is a 502 naming the slice.
	expire()
	resp, body = gwGet(t, gw, "/v1/cert/"+strings.Repeat("e5", 32))
	var ej errorJSON
	if err := json.Unmarshal(body, &ej); err != nil {
		t.Fatalf("%v: %s", err, body)
	}
	if resp.StatusCode != http.StatusBadGateway || fmt.Sprint(ej.MissingShards) != "[0]" || resp.Header.Get(MissingShardsHeader) != "0" {
		t.Fatalf("unknown fingerprint with a dead slice: status %d, %s %q: %s",
			resp.StatusCode, MissingShardsHeader, resp.Header.Get(MissingShardsHeader), body)
	}
}

// There are no negative hints: a fingerprint nobody holds asks every slice
// on every lookup before its 404 is authoritative.
func TestCertUnknownAsksEverySliceEveryTime(t *testing.T) {
	shards, gw := certFleet(t, 3, Config{}, new(holders))
	before := via()
	for i := 0; i < 3; i++ {
		resp, body := gwGet(t, gw, "/v1/cert/"+strings.Repeat("f6", 32))
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("lookup %d: status %d: %s", i, resp.StatusCode, body)
		}
		wantAsked(t, fmt.Sprintf("lookup %d", i), shards, 1, 1, 1)
		expire()
	}
	wantVia(t, "three unknown lookups", before, 0, 3, 0)
}

// With storage off there is nothing to read a hint from, and every lookup
// scatters.
func TestCertNoStorageScattersEveryTime(t *testing.T) {
	full := strings.Repeat("a7", 32)
	shards, gw := certFleet(t, 3, Config{CacheEntries: -1}, new(holders).set(full, 1))
	before := via()
	for i := 0; i < 3; i++ {
		resp, body := gwGet(t, gw, "/v1/cert/"+full)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("lookup %d: status %d: %s", i, resp.StatusCode, body)
		}
		wantAsked(t, fmt.Sprintf("lookup %d", i), shards, 1, 1, 1)
	}
	wantVia(t, "three lookups without storage", before, 0, 3, 0)
}

// A replica serving a last-good verdict says so in X-Stale-Evidence as well
// as in the body. The gateway used to relay the body alone. Served stale by
// the gateway, the verdict's evidence is as old as the replica said plus the
// time the gateway held it; the gateway used to give its own age alone.
func TestReplicaStaleEvidenceHeaderIsRelayed(t *testing.T) {
	const evidence = "staleness:relayed.com age=3m0s"
	clock := resil.NewFakeClock(time.Unix(1_700_000_000, 0))
	shards, gw := newFleet(t, 2, Config{CacheTTL: 5 * time.Second, Clock: clock}, func(_ int, mux *http.ServeMux) {
		mux.HandleFunc("GET /v1/domain/{e2ld}/staleness", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(obs.StaleEvidenceHeader, evidence)
			fmt.Fprintf(w, `{"domain":%q,"degraded":true,"evidence_age":"3m0s"}`, r.PathValue("e2ld"))
		})
	})
	for _, from := range []string{"relayed", "served from the response cache"} {
		resp, body := gwGet(t, gw, "/v1/domain/relayed.com/staleness")
		if got := resp.Header.Get(obs.StaleEvidenceHeader); resp.StatusCode != http.StatusOK || got != evidence {
			t.Fatalf("%s: status %d, %s = %q, want %q: %s", from, resp.StatusCode, obs.StaleEvidenceHeader, got, evidence, body)
		}
	}
	if hits := shards[0].hits.Load() + shards[1].hits.Load(); hits != 1 {
		t.Fatalf("replicas asked %d times, want 1: the second answer was to come from the cache", hits)
	}

	// Served stale by the gateway itself: its own header, then the one that
	// came with the body.
	owner := shard.MustRing(2, shard.DefaultVNodes).Lookup(shard.KeyForDomain("relayed.com"))
	shards[owner].ts.Close()
	clock.Advance(10 * time.Second)
	resp, body := gwGet(t, gw, "/v1/domain/relayed.com/staleness")
	got := resp.Header.Values(obs.StaleEvidenceHeader)
	if resp.StatusCode != http.StatusOK || len(got) != 2 || !strings.HasPrefix(got[0], fmt.Sprintf("shard:%d ", owner)) || got[1] != evidence {
		t.Fatalf("served stale: status %d, %s = %q: %s", resp.StatusCode, obs.StaleEvidenceHeader, got, body)
	}
	var verdict struct {
		EvidenceAge string `json:"evidence_age"`
	}
	if err := json.Unmarshal(body, &verdict); err != nil || verdict.EvidenceAge != "3m10s" {
		t.Fatalf("served stale: evidence_age %q (%v), want 3m10s: %s", verdict.EvidenceAge, err, body)
	}
}

// Every spelling of one domain is one cache entry and one replica call. The
// key used to be the raw request URI, so casing, a trailing dot or a query
// string each bought a replica call and an entry of the last-good cache.
func TestOwnerRoutedKeysOnTheCanonicalDomain(t *testing.T) {
	var upstream atomic.Value
	shards, gw := newFleet(t, 2, Config{CacheTTL: time.Minute}, func(_ int, mux *http.ServeMux) {
		mux.HandleFunc("GET /v1/domain/{e2ld}/{endpoint}", func(w http.ResponseWriter, r *http.Request) {
			upstream.Store(r.URL.RequestURI())
			fmt.Fprintf(w, `{"domain":%q}`, r.PathValue("e2ld"))
		})
	})
	for _, spelling := range []string{"Example.COM", "example.com", "example.com.", "EXAMPLE.com?x=1", "example.com?x=2&y=3"} {
		domain, query, _ := strings.Cut(spelling, "?")
		if query != "" {
			query = "?" + query
		}
		resp, body := gwGet(t, gw, "/v1/domain/"+domain+"/staleness"+query)
		if resp.StatusCode != http.StatusOK || string(body) != `{"domain":"example.com"}` {
			t.Fatalf("%q: status %d: %s", spelling, resp.StatusCode, body)
		}
	}
	if hits := shards[0].hits.Load() + shards[1].hits.Load(); hits != 1 {
		t.Fatalf("five spellings of one domain cost %d replica calls, want 1", hits)
	}
	if n := gw.cache.Len(); n != 1 {
		t.Fatalf("five spellings of one domain hold %d cache entries, want 1", n)
	}
	if got := upstream.Load(); got != "/v1/domain/example.com/staleness" {
		t.Fatalf("upstream request %q, want the canonical path", got)
	}
	// The other endpoint of the same domain is its own entry.
	gwGet(t, gw, "/v1/domain/example.COM/certs")
	if got := upstream.Load(); got != "/v1/domain/example.com/certs" || gw.cache.Len() != 2 {
		t.Fatalf("certs endpoint: upstream %q, %d cache entries", got, gw.cache.Len())
	}
}

// A relayed body goes out with Content-Length whatever its size. Nothing set
// it, so net/http chunk-framed every body over its 2 048-byte buffer — every
// /certs listing — a second time on the client hop.
func TestRelayedBodyCarriesContentLength(t *testing.T) {
	listing := `{"certs":"` + strings.Repeat("x", 3000) + `"}`
	_, gw := newFleet(t, 2, Config{}, func(_ int, mux *http.ServeMux) {
		mux.HandleFunc("GET /v1/domain/{e2ld}/certs", func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprint(w, listing)
		})
	})
	resp, body := gwGet(t, gw, "/v1/domain/listing.com/certs")
	if string(body) != listing {
		t.Fatalf("relayed %d bytes, want the replica's %d", len(body), len(listing))
	}
	if resp.ContentLength != int64(len(listing)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("Content-Length %d, Transfer-Encoding %v; want %d and none", resp.ContentLength, resp.TransferEncoding, len(listing))
	}
}
