package obs

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// ProbeFunc reports one readiness condition: nil means ready. Probes must be
// safe for concurrent use and should return quickly (the readyz handler runs
// them with a short deadline).
type ProbeFunc func(ctx context.Context) error

// Health is a named set of readiness probes backing the /healthz and /readyz
// endpoints. Liveness (/healthz) is unconditional — the process is up;
// readiness (/readyz) is the conjunction of every registered probe, so
// orchestrators hold traffic until the daemon's state (CT tree, CA registry,
// zone file, ...) is actually loaded.
type Health struct {
	started time.Time

	mu     sync.RWMutex
	names  []string
	probes map[string]ProbeFunc
}

// NewHealth creates an empty probe set.
func NewHealth() *Health {
	return &Health{started: time.Now(), probes: make(map[string]ProbeFunc)}
}

var defaultHealth = NewHealth()

// DefaultHealth returns the process-wide probe set served by the debug
// endpoints a daemon starts through Flags.Setup.
func DefaultHealth() *Health { return defaultHealth }

// Register adds (or replaces) a named probe.
func (h *Health) Register(name string, probe ProbeFunc) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.probes[name]; !ok {
		h.names = append(h.names, name)
		sort.Strings(h.names)
	}
	h.probes[name] = probe
}

// ProbeResult is one probe's outcome.
type ProbeResult struct {
	Name string
	Err  error
}

// Check runs every probe and returns results sorted by name.
func (h *Health) Check(ctx context.Context) []ProbeResult {
	h.mu.RLock()
	names := append([]string(nil), h.names...)
	probes := make([]ProbeFunc, len(names))
	for i, n := range names {
		probes[i] = h.probes[n]
	}
	h.mu.RUnlock()
	out := make([]ProbeResult, len(names))
	for i, n := range names {
		out[i] = ProbeResult{Name: n, Err: probes[i](ctx)}
	}
	return out
}

// Uptime reports time since the probe set was created (process start for
// DefaultHealth).
func (h *Health) Uptime() time.Duration { return time.Since(h.started) }

// Healthz answers liveness: 200 with the uptime while the process serves.
func (h *Health) Healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ok uptime=%s\n", h.Uptime().Round(time.Millisecond))
}

// Readyz runs every probe under a short deadline and answers with three-way
// semantics: any hard failure → 503 unready; only Degraded failures → 200
// with the degradations listed (the daemon serves, on last-good data); all
// clean → 200 ready.
func (h *Health) Readyz(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
	defer cancel()
	results := h.Check(ctx)
	status := http.StatusOK
	for _, res := range results {
		if res.Err != nil && !IsDegraded(res.Err) {
			status = http.StatusServiceUnavailable
			break
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(status)
	if len(results) == 0 {
		fmt.Fprintln(w, "ready (no probes registered)")
		return
	}
	for _, res := range results {
		switch {
		case res.Err == nil:
			fmt.Fprintf(w, "ready %s\n", res.Name)
		case IsDegraded(res.Err):
			fmt.Fprintf(w, "degraded %s: %v\n", res.Name, res.Err)
		default:
			fmt.Fprintf(w, "not-ready %s: %v\n", res.Name, res.Err)
		}
	}
}

// degradedError marks a probe failure as "degraded": the daemon still
// serves — on last-good data — so orchestrators should keep routing to it.
type degradedError struct{ err error }

func (e *degradedError) Error() string { return "degraded: " + e.err.Error() }
func (e *degradedError) Unwrap() error { return e.err }

// Degraded wraps a probe error to downgrade it from unready (503) to
// degraded (200 with the condition listed): the daemon is impaired but still
// serving useful responses. Degraded(nil) is nil.
func Degraded(err error) error {
	if err == nil {
		return nil
	}
	return &degradedError{err: err}
}

// IsDegraded reports whether err carries the Degraded marker.
func IsDegraded(err error) bool {
	var de *degradedError
	return errors.As(err, &de)
}

// StaleEvidenceHeader marks a response that includes last-good data for an
// upstream that is currently failing; the value names the stale sources.
const StaleEvidenceHeader = "X-Stale-Evidence"

// Ready is a settable readiness condition: it starts failing with a reason
// and flips healthy once OK (or Fail with a new error) is called. Register
// its Probe with a Health and call OK when initialisation finishes.
type Ready struct {
	mu  sync.Mutex
	err error
}

// NewReady creates a condition that is initially not ready for the given
// reason.
func NewReady(reason string) *Ready {
	return &Ready{err: fmt.Errorf("%s", reason)}
}

// OK marks the condition ready.
func (r *Ready) OK() { r.set(nil) }

// Fail marks the condition not ready.
func (r *Ready) Fail(err error) { r.set(err) }

func (r *Ready) set(err error) {
	r.mu.Lock()
	r.err = err
	r.mu.Unlock()
}

// Probe implements ProbeFunc.
func (r *Ready) Probe(context.Context) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}
