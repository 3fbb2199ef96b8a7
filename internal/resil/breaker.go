package resil

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"stalecert/internal/obs"
)

// ErrOpen is returned (wrapped with the peer) when a circuit rejects a call.
// DefaultClassify treats it as terminal: the point of a breaker is to fail
// fast, not to queue retries behind a down peer.
var ErrOpen = errors.New("resil: circuit open")

// State is a breaker's position.
type State uint8

// Breaker states. The gauge resil_breaker_state exports the numeric value.
const (
	Closed   State = iota // normal operation, calls flow
	Open                  // failing fast, calls rejected until the cooldown
	HalfOpen              // admitting one probe at a time
)

// String names the state.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "state?"
}

// The sliding failure-rate window every breaker judges its peer over, kept in
// breakerBuckets slices so old outcomes age out a slice at a time, and the
// failure fraction in it that opens the circuit.
const (
	breakerWindow    = 30 * time.Second
	breakerBuckets   = 10
	breakerThreshold = 0.5
)

// BreakerConfig tunes a BreakerSet. The zero value applies the documented
// defaults.
type BreakerConfig struct {
	// Service labels the breaker metric families.
	Service string
	// MinRequests is the window volume below which the circuit never opens
	// (default 10) — a single failed call out of one must not trip.
	MinRequests int
	// Cooldown is how long an open circuit rejects before admitting its one
	// half-open probe (default 5s).
	Cooldown time.Duration
	// Clock paces the window and cooldown (default: the real clock).
	Clock Clock
	// OnStateChange observes transitions (called outside the breaker lock).
	OnStateChange func(peer string, from, to State)
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Service == "" {
		c.Service = "unnamed"
	}
	if c.MinRequests <= 0 {
		c.MinRequests = 10
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.Clock == nil {
		c.Clock = realClock{}
	}
	return c
}

type bucket struct {
	ok   uint64
	fail uint64
}

// Breaker is one peer's three-state circuit: closed while the sliding-window
// failure rate stays under the threshold, open (rejecting) after it trips,
// half-open (admitting one probe) after the cooldown. All methods are
// safe for concurrent use.
type Breaker struct {
	cfg  BreakerConfig
	peer string

	mu          sync.Mutex
	state       State
	buckets     []bucket
	cur         int
	bucketStart time.Time
	openedAt    time.Time
	probing     bool // the one half-open probe is in flight
	trips       uint64

	stateGauge *obs.Gauge
	tripsCtr   *obs.Counter
	rejectsCtr *obs.Counter
}

func newBreaker(cfg BreakerConfig, peer string) *Breaker {
	b := &Breaker{
		cfg:         cfg,
		peer:        peer,
		buckets:     make([]bucket, breakerBuckets),
		bucketStart: cfg.Clock.Now(),
		stateGauge:  obs.Default().Gauge("resil_breaker_state", "service", cfg.Service, "peer", peer),
		tripsCtr:    obs.Default().Counter("resil_breaker_trips_total", "service", cfg.Service, "peer", peer),
		rejectsCtr:  obs.Default().Counter("resil_breaker_rejected_total", "service", cfg.Service, "peer", peer),
	}
	b.stateGauge.Set(float64(Closed))
	return b
}

// rotate advances the bucket ring to now, zeroing buckets the window slid
// past. Caller holds b.mu.
func (b *Breaker) rotate(now time.Time) {
	width := breakerWindow / breakerBuckets
	for now.Sub(b.bucketStart) >= width {
		b.cur = (b.cur + 1) % len(b.buckets)
		b.buckets[b.cur] = bucket{}
		b.bucketStart = b.bucketStart.Add(width)
		if now.Sub(b.bucketStart) >= breakerWindow {
			// Idle long enough that the whole window expired; reset
			// wholesale instead of spinning bucket by bucket.
			for i := range b.buckets {
				b.buckets[i] = bucket{}
			}
			b.bucketStart = now
		}
	}
}

// window sums the ring. Caller holds b.mu.
func (b *Breaker) window() (ok, fail uint64) {
	for _, bk := range b.buckets {
		ok += bk.ok
		fail += bk.fail
	}
	return ok, fail
}

// transition moves to next and returns a callback to run outside the lock.
// Caller holds b.mu.
func (b *Breaker) transition(next State, now time.Time) func() {
	from := b.state
	if from == next {
		return nil
	}
	b.state = next
	b.stateGauge.Set(float64(next))
	switch next {
	case Open:
		b.openedAt = now
		b.trips++
		b.tripsCtr.Inc()
	case HalfOpen:
		b.probing = false
	case Closed:
		for i := range b.buckets {
			b.buckets[i] = bucket{}
		}
		b.bucketStart = now
	}
	if cb := b.cfg.OnStateChange; cb != nil {
		peer := b.peer
		return func() { cb(peer, from, next) }
	}
	return nil
}

// Outcome is a finished call's disposition as seen by the breaker.
type Outcome uint8

// Outcomes. Canceled marks a call abandoned by its caller (a losing hedge
// leg, a scatter cut short): it proves nothing about the peer's health, so
// it neither counts in the failure window nor resolves a half-open probe —
// hedging against a peer must not trip its circuit.
const (
	OutcomeSuccess Outcome = iota
	OutcomeFailure
	OutcomeCanceled
)

// Allow admits or rejects one call. On admission it returns a report
// function the caller MUST invoke exactly once with the call's outcome; on
// rejection it returns an error wrapping ErrOpen.
func (b *Breaker) Allow() (report func(Outcome), err error) {
	now := b.cfg.Clock.Now()
	b.mu.Lock()
	b.rotate(now)
	var notify func()
	switch b.state {
	case Open:
		if now.Sub(b.openedAt) < b.cfg.Cooldown {
			b.mu.Unlock()
			b.rejectsCtr.Inc()
			return nil, fmt.Errorf("%w: peer %s", ErrOpen, b.peer)
		}
		notify = b.transition(HalfOpen, now)
		fallthrough
	case HalfOpen:
		if b.probing {
			b.mu.Unlock()
			if notify != nil {
				notify()
			}
			b.rejectsCtr.Inc()
			return nil, fmt.Errorf("%w: peer %s (half-open, probe busy)", ErrOpen, b.peer)
		}
		b.probing = true
		b.mu.Unlock()
		if notify != nil {
			notify()
		}
		return b.reportProbe, nil
	default: // Closed
		b.mu.Unlock()
		return b.reportClosed, nil
	}
}

// reportClosed records a closed-state outcome and trips the circuit when the
// window crosses the threshold. Canceled outcomes are neutral: no window
// entry, no trip.
func (b *Breaker) reportClosed(o Outcome) {
	if o == OutcomeCanceled {
		return
	}
	ok := o == OutcomeSuccess
	now := b.cfg.Clock.Now()
	b.mu.Lock()
	b.rotate(now)
	if ok {
		b.buckets[b.cur].ok++
	} else {
		b.buckets[b.cur].fail++
	}
	// Once a concurrent probe has moved the state, a stale outcome still lands
	// in the window but must not re-trip.
	var notify func()
	if okN, failN := b.window(); !ok && b.state == Closed && okN+failN >= uint64(b.cfg.MinRequests) &&
		float64(failN)/float64(okN+failN) >= breakerThreshold {
		notify = b.transition(Open, now)
	}
	b.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// reportProbe resolves a half-open probe: success closes the circuit,
// failure re-opens it for another cooldown, cancellation releases the probe
// slot without judging the peer.
func (b *Breaker) reportProbe(o Outcome) {
	now := b.cfg.Clock.Now()
	b.mu.Lock()
	if b.state != HalfOpen {
		b.mu.Unlock()
		return
	}
	b.probing = false
	var notify func()
	switch o {
	case OutcomeSuccess:
		notify = b.transition(Closed, now)
	case OutcomeFailure:
		notify = b.transition(Open, now)
	case OutcomeCanceled:
		// Stay half-open; the freed slot admits the next probe.
	}
	b.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// State returns the current state (after window rotation).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// BreakerStatus is one peer's snapshot for /v1/breakers.
type BreakerStatus struct {
	Service    string `json:"service"`
	Peer       string `json:"peer"`
	State      string `json:"state"`
	WindowOK   uint64 `json:"window_ok"`
	WindowFail uint64 `json:"window_fail"`
	Trips      uint64 `json:"trips"`
}

// BreakerSet holds one Breaker per peer under a shared config, the unit a
// client wires in: every outbound host gets its own circuit.
type BreakerSet struct {
	cfg BreakerConfig
	mu  sync.Mutex
	by  map[string]*Breaker
}

// NewBreakerSet creates a per-peer breaker family and registers it on the
// process-wide /v1/breakers debug surface.
func NewBreakerSet(cfg BreakerConfig) *BreakerSet {
	s := &BreakerSet{cfg: cfg.withDefaults(), by: make(map[string]*Breaker)}
	registerSet(s)
	return s
}

// For returns (creating on first use) the breaker for one peer.
func (s *BreakerSet) For(peer string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.by[peer]
	if b == nil {
		b = newBreaker(s.cfg, peer)
		s.by[peer] = b
	}
	return b
}

// Snapshot returns every peer's status, sorted by peer.
func (s *BreakerSet) Snapshot() []BreakerStatus {
	s.mu.Lock()
	breakers := make([]*Breaker, 0, len(s.by))
	for _, b := range s.by {
		breakers = append(breakers, b)
	}
	s.mu.Unlock()
	out := make([]BreakerStatus, 0, len(breakers))
	for _, b := range breakers {
		b.mu.Lock()
		b.rotate(b.cfg.Clock.Now())
		ok, fail := b.window()
		out = append(out, BreakerStatus{
			Service:    b.cfg.Service,
			Peer:       b.peer,
			State:      b.state.String(),
			WindowOK:   ok,
			WindowFail: fail,
			Trips:      b.trips,
		})
		b.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Service != out[j].Service {
			return out[i].Service < out[j].Service
		}
		return out[i].Peer < out[j].Peer
	})
	return out
}

// Process-wide registry of breaker sets backing the /v1/breakers endpoint.
var (
	setsMu sync.Mutex
	sets   []*BreakerSet
)

func registerSet(s *BreakerSet) {
	setsMu.Lock()
	sets = append(sets, s)
	setsMu.Unlock()
}

// Handler serves GET /v1/breakers: a JSON array of every breaker in the
// process (all sets, all peers), the debug view of circuit health.
func Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		setsMu.Lock()
		all := append([]*BreakerSet(nil), sets...)
		setsMu.Unlock()
		var out []BreakerStatus
		for _, s := range all {
			out = append(out, s.Snapshot()...)
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Service != out[j].Service {
				return out[i].Service < out[j].Service
			}
			return out[i].Peer < out[j].Peer
		})
		if out == nil {
			out = []BreakerStatus{}
		}
		obs.WriteJSON(w, http.StatusOK, out)
	})
}

func init() {
	obs.RegisterDebug("GET /v1/breakers", Handler())
}
