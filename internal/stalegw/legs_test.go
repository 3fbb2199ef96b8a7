package stalegw

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"stalecert/internal/obs"
	"stalecert/internal/resil"
)

// streamOversized writes a 200 whose body is one byte over maxShardBody.
func streamOversized(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	chunk := []byte(strings.Repeat("x", 1<<20))
	for sent := 0; sent < maxShardBody; sent += len(chunk) {
		_, _ = w.Write(chunk)
	}
	_, _ = w.Write([]byte("x"))
}

// A replica body over maxShardBody used to be cut at the bound and relayed as
// a complete 200 (owner-routed) or dropped from the merge with no error
// (/v1/domains). It is a leg error naming the replica and the limit — through
// the plain client and through the resilient one, whose buffered body takes
// ReadBody's other path.
func TestOversizedReplicaBodyFailsTheLeg(t *testing.T) {
	clients := map[string]func() *http.Client{
		"plain":     func() *http.Client { return nil },
		"resilient": func() *http.Client { return resil.NewHTTPClient(resil.Options{Service: "oversize-test"}) },
	}
	for name, client := range clients {
		t.Run(name, func(t *testing.T) {
			_, gw := newFleet(t, 2, Config{Client: client()}, func(idx int, mux *http.ServeMux) {
				mux.HandleFunc("GET /v1/domain/{e2ld}/staleness", func(w http.ResponseWriter, _ *http.Request) {
					streamOversized(w)
				})
				mux.HandleFunc("GET /v1/domains", func(w http.ResponseWriter, _ *http.Request) {
					if idx == 1 {
						streamOversized(w)
						return
					}
					fmt.Fprint(w, `{"domains":["alpha.com"],"total":1}`)
				})
			})

			domain := domainsOwnedBy(t, 2, 0, 1)[0]
			resp, body := gwGet(t, gw, "/v1/domain/"+domain+"/staleness")
			if resp.StatusCode != http.StatusBadGateway {
				t.Fatalf("oversized owner-routed body: status %d, %d bytes relayed", resp.StatusCode, len(body))
			}
			var ej errorJSON
			if err := json.Unmarshal(body, &ej); err != nil {
				t.Fatalf("error body: %v: %s", err, body)
			}
			if !strings.Contains(ej.Error, "shard 0 replica 0") || !strings.Contains(ej.Error, strconv.Itoa(maxShardBody)) {
				t.Fatalf("leg error %q does not name the replica and the %d-byte limit", ej.Error, maxShardBody)
			}
			if len(ej.MissingShards) != 1 || ej.MissingShards[0] != 0 {
				t.Fatalf("missing_shards = %v, want [0]", ej.MissingShards)
			}

			resp, body = gwGet(t, gw, "/v1/domains")
			var dr DomainsResponse
			if err := json.Unmarshal(body, &dr); err != nil {
				t.Fatalf("domains body: %v", err)
			}
			if resp.StatusCode != http.StatusOK || !dr.Degraded || len(dr.MissingShards) != 1 || dr.MissingShards[0] != 1 || dr.Total != 1 {
				t.Fatalf("oversized /v1/domains leg: status %d, merged %+v, want shard 1 missing", resp.StatusCode, dr)
			}
			if errs := obs.Default().Counter("stalegw_shard_errors_total", "shard", "1").Value(); errs == 0 {
				t.Fatal("oversized leg was not counted as a shard error")
			}
		})
	}
}

// Every request sharing one fingerprint scatter must report the slices that
// scatter could not reach — the loader's result used to reach only the
// request that ran it, so one joining its flight answered 502 with an empty
// X-Missing-Shards and no missing_shards.
func TestCertMissingShardsReachEveryWaiter(t *testing.T) {
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	shards, gw := newFleet(t, 2, Config{}, func(idx int, mux *http.ServeMux) {
		mux.HandleFunc("GET /v1/cert/{fp}", func(w http.ResponseWriter, _ *http.Request) {
			entered <- struct{}{}
			<-release
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":"unknown fingerprint"}`)
		})
	})
	shards[1].ts.Close()
	shared := obs.Default().Counter("stalegw_singleflight_shared_total")
	before := shared.Value()

	type answer struct {
		status int
		header string
		body   []byte
	}
	answers := make([]answer, 2)
	var wg sync.WaitGroup
	ask := func(i int) {
		defer wg.Done()
		resp, body := gwGet(t, gw, "/v1/cert/"+strings.Repeat("cd", 32))
		answers[i] = answer{resp.StatusCode, resp.Header.Get(MissingShardsHeader), body}
	}
	wg.Add(2)
	go ask(0)
	<-entered // the first request's scatter is parked inside the live shard
	go ask(1)
	for deadline := time.Now().Add(5 * time.Second); shared.Value() == before; {
		if time.Now().After(deadline) {
			t.Fatal("second request never joined the first one's flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i, a := range answers {
		var ej errorJSON
		if err := json.Unmarshal(a.body, &ej); err != nil {
			t.Fatalf("request %d: %v: %s", i, err, a.body)
		}
		if a.status != http.StatusBadGateway || a.header != "1" || len(ej.MissingShards) != 1 || ej.MissingShards[0] != 1 {
			t.Fatalf("request %d: status %d, %s %q, missing_shards %v; want 502 naming shard 1",
				i, a.status, MissingShardsHeader, a.header, ej.MissingShards)
		}
	}
}

// A cert answer degraded to last-good names the slices the failed scatter
// missed, taken from the loader error the cache hands back with the stale
// value.
func TestCertServeStaleNamesMissingShards(t *testing.T) {
	const fp = "abababababababababababababababababababababababababababababababab"
	shards, gw := newFleet(t, 2, Config{CacheTTL: time.Millisecond}, func(idx int, mux *http.ServeMux) {
		mux.HandleFunc("GET /v1/cert/{fp}", func(w http.ResponseWriter, _ *http.Request) {
			if idx == 1 {
				fmt.Fprint(w, `{"fingerprint":"`+fp+`"}`)
				return
			}
			w.WriteHeader(http.StatusNotFound)
		})
	})
	if resp, body := gwGet(t, gw, "/v1/cert/"+fp); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up status %d: %s", resp.StatusCode, body)
	}
	shards[1].ts.Close()
	time.Sleep(5 * time.Millisecond) // past the 1 ms cache TTL

	resp, body := gwGet(t, gw, "/v1/cert/"+fp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"degraded": true`) {
		t.Fatalf("status %d, body %s; want the degraded last-good answer", resp.StatusCode, body)
	}
	if got := resp.Header.Get(MissingShardsHeader); got != "1" {
		t.Fatalf("%s = %q, want 1", MissingShardsHeader, got)
	}
}
