package resil

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"stalecert/internal/obs"
)

// FaultKind names one class of injected failure.
type FaultKind string

// Fault kinds injected by Chaos and ChaosListener.
const (
	FaultError     FaultKind = "error"      // transport-level error before any response
	FaultStatus5xx FaultKind = "status_5xx" // synthetic 503 with a Retry-After hint
	FaultTornBody  FaultKind = "torn_body"  // response cut mid-body (unexpected EOF)
	FaultLatency   FaultKind = "latency"    // added delay, then the real response
	FaultBlackhole FaultKind = "blackhole"  // hang until the request context dies
	FaultConnDrop  FaultKind = "conn_drop"  // listener: accepted conn closed at once
)

func chaosCounter(kind FaultKind) *obs.Counter {
	return obs.Default().Counter("resil_chaos_injections_total", "kind", string(kind))
}

// Rates sets per-kind injection probabilities (each in [0,1], evaluated in
// the order error, 5xx, torn body, latency, blackhole — at most one fault
// fires per request).
type Rates struct {
	Error     float64
	Status5xx float64
	TornBody  float64
	Latency   float64
	Blackhole float64
}

// DefaultRates splits a total fault probability across kinds with weights
// that mirror wild failure modes: mostly hard errors and 5xx, some torn
// bodies and latency, a sliver of blackholes.
func DefaultRates(total float64) Rates {
	return Rates{
		Error:     total * 0.35,
		Status5xx: total * 0.25,
		TornBody:  total * 0.20,
		Latency:   total * 0.15,
		Blackhole: total * 0.05,
	}
}

// What a torn-body fault lets through, and what a latency fault adds.
const (
	tornAfter    = 64
	faultLatency = 200 * time.Millisecond
)

// Chaos is a seeded fault stream for acceptance tests: a deterministic RNG
// decides, per request, whether to return a transport error, a synthetic 503,
// a response cut mid-body, added latency, or a blackhole (hang until the
// request context is canceled). WithBase slots it between the resilient
// transport and the real one so injected faults exercise the retry/breaker
// machinery exactly like wild ones.
type Chaos struct {
	rates Rates
	mu    sync.Mutex
	rng   *rand.Rand
}

// NewChaos creates a fault stream with a deterministic seed.
func NewChaos(seed int64, rates Rates) *Chaos {
	return &Chaos{rates: rates, rng: rand.New(rand.NewSource(seed))}
}

// roll draws one uniform [0,1) variate from the seeded stream.
func (c *Chaos) roll() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64()
}

// pick decides the fault (if any) for one request. A single draw is compared
// against stacked rate bands so the per-request fault distribution matches
// Rates while consuming exactly one variate — keeps the injected sequence
// stable even as the retry layer varies attempt counts.
func (c *Chaos) pick() (FaultKind, bool) {
	v := c.roll()
	for _, band := range []struct {
		kind FaultKind
		rate float64
	}{
		{FaultError, c.rates.Error},
		{FaultStatus5xx, c.rates.Status5xx},
		{FaultTornBody, c.rates.TornBody},
		{FaultLatency, c.rates.Latency},
		{FaultBlackhole, c.rates.Blackhole},
	} {
		if v < band.rate {
			return band.kind, true
		}
		v -= band.rate
	}
	return "", false
}

// tornBody yields up to n bytes from the real body then fails with
// io.ErrUnexpectedEOF, mimicking a connection cut mid-transfer.
type tornBody struct {
	r         io.ReadCloser
	remaining int
}

func (t *tornBody) Read(p []byte) (int, error) {
	if t.remaining <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if len(p) > t.remaining {
		p = p[:t.remaining]
	}
	n, err := t.r.Read(p)
	t.remaining -= n
	if err == io.EOF {
		// The real body was shorter than the cut point; still report a tear
		// so the consumer sees a truncated transfer.
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (t *tornBody) Close() error { return t.r.Close() }

// WithBase returns a RoundTripper that injects this Chaos's seeded faults
// and delegates real round trips to base (nil = http.DefaultTransport); one
// deterministic stream can cover several instrumented clients.
func (c *Chaos) WithBase(base http.RoundTripper) http.RoundTripper {
	return chaosWithBase{c: c, base: base}
}

type chaosWithBase struct {
	c    *Chaos
	base http.RoundTripper
}

func (w chaosWithBase) RoundTrip(req *http.Request) (*http.Response, error) {
	c, base := w.c, w.base
	if base == nil {
		base = http.DefaultTransport
	}
	kind, fire := c.pick()
	if !fire {
		return base.RoundTrip(req)
	}
	chaosCounter(kind).Inc()
	switch kind {
	case FaultError:
		return nil, fmt.Errorf("chaos: injected connection reset (%s)", req.URL.Host)
	case FaultStatus5xx:
		body := []byte("chaos: injected 503\n")
		return &http.Response{
			StatusCode:    http.StatusServiceUnavailable,
			Status:        "503 Service Unavailable",
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        http.Header{"Retry-After": []string{"0"}, "X-Chaos": []string{"status_5xx"}},
			Body:          io.NopCloser(bytes.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	case FaultTornBody:
		resp, err := base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = &tornBody{r: resp.Body, remaining: tornAfter}
		resp.ContentLength = -1
		resp.Header.Del("Content-Length")
		return resp, nil
	case FaultLatency:
		t := time.NewTimer(faultLatency)
		select {
		case <-req.Context().Done():
			t.Stop()
			return nil, req.Context().Err()
		case <-t.C:
		}
		return base.RoundTrip(req)
	case FaultBlackhole:
		// Hang until the caller's context (usually the per-attempt budget)
		// gives up — the classic unresponsive peer.
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	return base.RoundTrip(req)
}

// ChaosListener wraps a net.Listener, dropping a seeded fraction of accepted
// connections immediately — the server-side counterpart to Chaos, exercising
// client reconnect paths without touching server code.
type ChaosListener struct {
	net.Listener
	rate float64

	mu  sync.Mutex
	rng *rand.Rand
}

// NewChaosListener wraps ln; each accepted connection is closed on the spot
// with probability rate, using a deterministic seeded stream.
func NewChaosListener(ln net.Listener, seed int64, rate float64) *ChaosListener {
	return &ChaosListener{Listener: ln, rate: rate, rng: rand.New(rand.NewSource(seed))}
}

// Accept implements net.Listener with fault injection.
func (l *ChaosListener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		drop := l.rng.Float64() < l.rate
		l.mu.Unlock()
		if !drop {
			return conn, nil
		}
		chaosCounter(FaultConnDrop).Inc()
		_ = conn.Close()
	}
}
