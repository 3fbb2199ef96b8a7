package resil

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func okTransport(body string) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		return &http.Response{
			StatusCode: 200, Status: "200 OK", Header: http.Header{},
			Body: io.NopCloser(strings.NewReader(body)), Request: req,
		}, nil
	})
}

// faultSequence classifies the outcome of each chaos round trip.
func faultSequence(t *testing.T, seed int64, n int) []string {
	t.Helper()
	rt := NewChaos(seed, DefaultRates(0.5)).WithBase(okTransport("body"))
	var seq []string
	for i := 0; i < n; i++ {
		req, _ := http.NewRequest(http.MethodGet, "http://peer.test/x", nil)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		resp, err := rt.RoundTrip(req.WithContext(ctx))
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			seq = append(seq, "blackhole")
		case err != nil:
			seq = append(seq, "error")
		default:
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case rerr != nil:
				seq = append(seq, "torn")
			case resp.StatusCode == 503:
				seq = append(seq, "503")
			default:
				seq = append(seq, "ok:"+string(body))
			}
		}
		cancel()
	}
	return seq
}

func TestChaosDeterministicPerSeed(t *testing.T) {
	a := faultSequence(t, 42, 50)
	b := faultSequence(t, 42, 50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 42 diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
	c := faultSequence(t, 43, 50)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical fault sequences")
	}
}

func TestChaosInjectsRoughlyAtRate(t *testing.T) {
	seq := faultSequence(t, 7, 400)
	faults := 0
	for _, s := range seq {
		if !strings.HasPrefix(s, "ok:") {
			faults++
		}
	}
	// 50% nominal; a seeded stream of 400 draws stays well within [30%, 70%].
	if faults < 120 || faults > 280 {
		t.Fatalf("faults = %d/400, want roughly half", faults)
	}
}

func TestChaosZeroRatesIsTransparent(t *testing.T) {
	rt := NewChaos(1, Rates{}).WithBase(okTransport("clean"))
	for i := 0; i < 20; i++ {
		req, _ := http.NewRequest(http.MethodGet, "http://peer.test/x", nil)
		resp, err := rt.RoundTrip(req)
		if err != nil {
			t.Fatalf("RoundTrip: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(body) != "clean" {
			t.Fatalf("body = %q", body)
		}
	}
}

func TestChaosTornBodySurfacesUnexpectedEOF(t *testing.T) {
	rt := NewChaos(1, Rates{TornBody: 1}).WithBase(okTransport(strings.Repeat("x", 4096)))
	req, _ := http.NewRequest(http.MethodGet, "http://peer.test/x", nil)
	resp, err := rt.RoundTrip(req)
	if err != nil {
		t.Fatalf("RoundTrip: %v", err)
	}
	defer resp.Body.Close()
	n, rerr := io.Copy(io.Discard, resp.Body)
	if !errors.Is(rerr, io.ErrUnexpectedEOF) {
		t.Fatalf("read err = %v, want ErrUnexpectedEOF", rerr)
	}
	if n > tornAfter {
		t.Fatalf("read %d bytes past the cut point", n)
	}
}

// The full stack: resilient transport over chaos over a real server. Under
// heavy injected faults the caller still sees clean responses.
func TestTransportRidesOutChaos(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		fmt.Fprint(w, "stable answer")
	}))
	defer srv.Close()

	chaos := NewChaos(99, DefaultRates(0.4))
	hc := &http.Client{Transport: &Transport{
		Base:    chaos.WithBase(nil),
		Service: "chaos-test",
		Policy: Policy{
			MaxAttempts: 8,
			BaseDelay:   time.Millisecond, MaxDelay: 5 * time.Millisecond,
			PerAttempt: 250 * time.Millisecond, // recovers blackholes
		},
	}}
	for i := 0; i < 30; i++ {
		resp, err := hc.Get(srv.URL)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil || string(body) != "stable answer" {
			t.Fatalf("request %d: body %q err %v", i, body, rerr)
		}
	}
	if hits.Load() < 30 {
		t.Fatalf("server hits = %d, want ≥ 30", hits.Load())
	}
}

func TestChaosListenerDropsSeededFraction(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := NewChaosListener(ln, 5, 0.5)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "up")
	})}
	go func() { _ = srv.Serve(cl) }()
	defer srv.Close()

	// A resilient client sees through the dropped connections.
	hc := NewHTTPClient(Options{Service: "listener-test", Policy: Policy{
		MaxAttempts: 10, BaseDelay: time.Millisecond,
	}})
	hc.Timeout = 5 * time.Second
	okCount := 0
	for i := 0; i < 10; i++ {
		resp, err := hc.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(body) == "up" {
			okCount++
		}
	}
	if okCount != 10 {
		t.Fatalf("ok = %d/10 — retries should ride out dropped conns", okCount)
	}
}
