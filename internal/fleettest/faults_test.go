package fleettest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stalecert/internal/obs"
	"stalecert/internal/resil"
)

// target serves body on every path, counting the requests that reach it.
func target(t *testing.T, body string) (string, *atomic.Int64) {
	hits := new(atomic.Int64)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		io.WriteString(w, body)
	}))
	t.Cleanup(srv.Close)
	return srv.URL, hits
}

// get asks url once under a deadline on a client of its own connections.
func get(hc *http.Client, url string, deadline time.Duration) (*http.Response, string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	resp, err := hc.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, string(body), err
}

// faultSequence classifies the outcome of n requests through a proxy on a
// fresh stream of the seed.
func faultSequence(t *testing.T, seed int64, rates Rates, n int) []string {
	t.Helper()
	up, _ := target(t, "body")
	proxy := NewFaults(seed, rates).Proxy(t, up)
	hc := &http.Client{Transport: &http.Transport{}}
	var seq []string
	for i := 0; i < n; i++ {
		resp, body, err := get(hc, proxy, 50*time.Millisecond)
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			seq = append(seq, "timeout") // a blackhole, or a latency fault
		case resp == nil:
			seq = append(seq, "error")
		case err != nil:
			seq = append(seq, "torn")
		case resp.StatusCode == http.StatusServiceUnavailable:
			seq = append(seq, "503")
		default:
			seq = append(seq, "ok:"+body)
		}
	}
	return seq
}

func TestProxyDeterministicPerSeed(t *testing.T) {
	a := fmt.Sprint(faultSequence(t, 42, DefaultRates(0.5), 50))
	if b := fmt.Sprint(faultSequence(t, 42, DefaultRates(0.5), 50)); a != b {
		t.Fatalf("seed 42 diverged:\n%s\n%s", a, b)
	}
	if c := fmt.Sprint(faultSequence(t, 43, DefaultRates(0.5), 50)); a == c {
		t.Fatal("seeds 42 and 43 produced identical fault sequences")
	}
}

func TestProxyInjectsRoughlyAtRate(t *testing.T) {
	// The quick kinds only: 400 draws, half of them faults.
	faults := 0
	for _, s := range faultSequence(t, 7, Rates{Error: 0.2, Status5xx: 0.2, TornBody: 0.1}, 400) {
		if !strings.HasPrefix(s, "ok:") {
			faults++
		}
	}
	// A seeded stream of 400 draws stays well within [30%, 70%].
	if faults < 120 || faults > 280 {
		t.Fatalf("faults = %d/400, want roughly half", faults)
	}
}

func TestProxyZeroRatesIsTransparent(t *testing.T) {
	up, hits := target(t, "clean")
	proxy := NewFaults(1, Rates{}).Proxy(t, up)
	for i := 0; i < 20; i++ {
		if resp, body, err := get(http.DefaultClient, proxy+"/x", time.Second); err != nil || resp.StatusCode != http.StatusOK || body != "clean" {
			t.Fatalf("request %d: %v, %q, %v", i, resp, body, err)
		}
	}
	if hits.Load() != 20 {
		t.Fatalf("target hit %d times, want 20", hits.Load())
	}
}

// Each kind at rate 1 has the outcome it names, and is counted under it.
func TestProxyFaultOutcomes(t *testing.T) {
	up, hits := target(t, strings.Repeat("x", 4096))
	counted := func(kind string) uint64 {
		return obs.Default().Counter("resil_chaos_injections_total", "kind", kind).Value()
	}
	for _, tc := range []struct {
		kind  string
		rates Rates
		check func(resp *http.Response, body string, err error, took time.Duration) error
	}{
		{"status_5xx", Rates{Status5xx: 1}, func(resp *http.Response, _ string, err error, _ time.Duration) error {
			if err != nil || resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "0" {
				return fmt.Errorf("want a 503 with Retry-After: 0, got %v, %v", resp, err)
			}
			return nil
		}},
		{"torn_body", Rates{TornBody: 1}, func(resp *http.Response, body string, err error, _ time.Duration) error {
			if !errors.Is(err, io.ErrUnexpectedEOF) || resp.StatusCode != http.StatusOK || len(body) > tornAfter {
				return fmt.Errorf("want a 200 cut after %d bytes, got %v with %d bytes, %v", tornAfter, resp, len(body), err)
			}
			return nil
		}},
		{"latency", Rates{Latency: 1}, func(resp *http.Response, body string, err error, took time.Duration) error {
			if err != nil || len(body) != 4096 || took < faultLatency {
				return fmt.Errorf("want the whole body after %v, got %d bytes after %v, %v", faultLatency, len(body), took, err)
			}
			return nil
		}},
		{"blackhole", Rates{Blackhole: 1}, func(_ *http.Response, _ string, err error, _ time.Duration) error {
			if !errors.Is(err, context.DeadlineExceeded) {
				return fmt.Errorf("want the client's deadline, got %v", err)
			}
			return nil
		}},
	} {
		before, hitsBefore := counted(tc.kind), hits.Load()
		proxy := NewFaults(1, tc.rates).Proxy(t, up)
		start := time.Now()
		resp, body, err := get(http.DefaultClient, proxy, 400*time.Millisecond)
		if cerr := tc.check(resp, body, err, time.Since(start)); cerr != nil {
			t.Errorf("%s: %v", tc.kind, cerr)
		}
		if got := counted(tc.kind) - before; got != 1 {
			t.Errorf("%s: counted %v injections, want 1", tc.kind, got)
		}
		if reached := hits.Load() - hitsBefore; (tc.kind == "torn_body" || tc.kind == "latency") != (reached == 1) {
			t.Errorf("%s: the target saw %d requests", tc.kind, reached)
		}
	}
}

// An error fault on a kept connection reaches the client as an error: one
// draw stays one attempt, however net/http replays a request that sees a
// kept connection close.
func TestProxyErrorOnReusedConnectionIsAClientError(t *testing.T) {
	// A seed whose draws are clean, an error, then clean: a replay of the
	// faulted request would get a 200.
	seed := int64(1)
	for ; ; seed++ {
		r := rand.New(rand.NewSource(seed))
		if r.Float64() >= 0.5 && r.Float64() < 0.5 && r.Float64() >= 0.5 {
			break
		}
	}
	up, hits := target(t, "ok")
	proxy := NewFaults(seed, Rates{Error: 0.5}).Proxy(t, up)
	hc := &http.Client{Transport: &http.Transport{}}
	if resp, body, err := get(hc, proxy, time.Second); err != nil || body != "ok" {
		t.Fatalf("first request: %v, %q, %v", resp, body, err)
	}
	reused := false
	trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) { reused = reused || info.Reused }}
	req, _ := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace), http.MethodGet, proxy, nil)
	resp, err := hc.Do(req)
	if err == nil {
		resp.Body.Close()
		t.Fatalf("error fault answered %d (target hit %d times)", resp.StatusCode, hits.Load())
	}
	if !reused || hits.Load() != 1 {
		t.Fatalf("reused %v, target hit %d times: the fault did not ride a kept connection", reused, hits.Load())
	}
	if resil.DefaultClassify(err) != resil.Retryable {
		t.Fatalf("%v is not retryable", err)
	}
}

// The full stack: resil's transport over a proxy over a real server. Under
// heavy injected faults the caller still sees clean responses.
func TestTransportRidesOutProxyFaults(t *testing.T) {
	up, hits := target(t, "stable answer")
	proxy := NewFaults(99, DefaultRates(0.4)).Proxy(t, up)
	hc := resil.NewHTTPClient(resil.Options{Service: "fault-proxy-test", Policy: resil.Policy{
		MaxAttempts: 8,
		BaseDelay:   time.Millisecond, MaxDelay: 5 * time.Millisecond,
		PerAttempt: 250 * time.Millisecond, // recovers blackholes
	}})
	for i := 0; i < 30; i++ {
		if _, body, err := get(hc, proxy, 10*time.Second); err != nil || body != "stable answer" {
			t.Fatalf("request %d: body %q err %v", i, body, err)
		}
	}
	if hits.Load() < 30 {
		t.Fatalf("target hits = %d, want ≥ 30", hits.Load())
	}
}
