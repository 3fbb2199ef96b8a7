package fleettest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"stalecert/internal/resil"
	"stalecert/internal/x509sim"
)

func corpus(t *testing.T, n uint64) []*x509sim.Certificate {
	t.Helper()
	var certs []*x509sim.Certificate
	for i := uint64(1); i <= n; i++ {
		c, err := x509sim.New(x509sim.SerialNumber(i), 1, x509sim.KeyID(i), []string{fmt.Sprintf("fleet%02d.com", i)}, 100, 1200)
		if err != nil {
			t.Fatal(err)
		}
		certs = append(certs, c)
	}
	return certs
}

func TestKillRefusesConnectionsAndOpensTheGatewaysBreaker(t *testing.T) {
	f := Start(t, Spec{Name: "kill", Certs: corpus(t, 12), Slices: 2, Replicas: 1})
	dead := f.Replicas[1][0]
	dead.Kill()
	dead.Kill() // a no-op
	for _, url := range []string{dead.URL, dead.Debug} {
		if resp, err := http.Get(url + "/healthz"); err == nil {
			resp.Body.Close()
			t.Fatalf("killed member still answers on %s", url)
		}
	}
	// Every listing scatters to both slices; the dead one's failed legs trip
	// its circuit, the live one's stays closed.
	for i := 0; i < 5; i++ {
		if resp, body := f.Gateway.Get("/v1/domains"); resp.StatusCode != http.StatusOK || !strings.Contains(body, `"degraded": true`) {
			t.Fatalf("listing with a dead slice = %d: %s", resp.StatusCode, body)
		}
	}
	var statuses []resil.BreakerStatus
	_, body := Get(t, f.Gateway.Debug+"/v1/breakers")
	if err := json.Unmarshal([]byte(body), &statuses); err != nil {
		t.Fatal(err)
	}
	states := map[string]string{}
	for _, s := range statuses {
		if s.Service == "kill-gw" {
			states["http://"+s.Peer] = s.State
		}
	}
	if states[dead.URL] != "open" || states[f.Replicas[0][0].URL] != "closed" {
		t.Fatalf("kill-gw breakers = %v, want %s open and its peer closed", states, dead.URL)
	}
}

func TestSlowDelaysOnlyTheNamedMember(t *testing.T) {
	f := Start(t, Spec{Name: "slow", Certs: corpus(t, 6), Slices: 1, Replicas: 2})
	stalled, sibling := f.Replicas[0][0], f.Replicas[0][1]
	// No stopwatch: the stalled member cannot answer inside the deadline by a
	// factor of a hundred, and nobody else has a deadline to miss.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, stalled.URL+"/v1/domains", nil)
	stalled.Slow(10 * time.Second)
	if resp, err := http.DefaultClient.Do(req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled member answered: %v, %v", resp, err)
	}
	for _, m := range []*Member{sibling, f.Reference} {
		if resp, _ := m.Get("/healthz"); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s /healthz = %d while its neighbour is stalled", m.Name, resp.StatusCode)
		}
	}
	stalled.Slow(0)
	if resp, _ := stalled.Get("/v1/domains"); resp.StatusCode != http.StatusOK {
		t.Fatalf("after Slow(0): /v1/domains = %d", resp.StatusCode)
	}
}

func TestFleetsShareNeitherPortsNorRegistries(t *testing.T) {
	a := Start(t, Spec{Name: "a", Certs: corpus(t, 4), Slices: 1, Replicas: 1})
	b := Start(t, Spec{Name: "b", Certs: corpus(t, 4), Slices: 1, Replicas: 1})
	seen := map[string]string{}
	claim := func(addr, owner string) {
		t.Helper()
		if other, dup := seen[addr]; dup {
			t.Fatalf("%s and %s share %s", other, owner, addr)
		}
		seen[addr] = owner
	}
	for name, f := range map[string]*Fleet{"a": a, "b": b} {
		for _, m := range f.Members() {
			claim(m.URL, name+"/"+m.Name)
			claim(m.Debug, name+"/"+m.Name+" debug")
		}
	}
	for i := 0; i < 64; i++ { // what binaries would be given
		claim("http://"+freeAddr(t), "freeAddr")
	}
	// One request through a's gateway is on a's books and nobody else's.
	a.Gateway.Get("/v1/domain/fleet01.com/certs")
	for _, m := range append(a.Members(), b.Members()...) {
		want := 0.0
		if m == a.Gateway || m == a.Replicas[0][0] {
			want = 1
		}
		if got := m.Scrape().Sum("http_requests_total", `route="/v1/domain/{e2ld}/certs"`); got != want {
			t.Errorf("%s counted %v certs requests, want %v", m.Name, got, want)
		}
	}
}
