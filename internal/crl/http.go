package crl

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stalecert/internal/obs"
	"stalecert/internal/resil"
	"stalecert/internal/simtime"
)

// Distribution-point and fetcher metrics. Fetch outcomes are labelled per CA
// so scrape-protection hot spots (Appendix B) show up directly in /metrics.
var (
	mServeOK      = obs.Default().Counter("crl_server_requests_total", "outcome", "ok")
	mServeBlocked = obs.Default().Counter("crl_server_requests_total", "outcome", "blocked")
	mServeUnknown = obs.Default().Counter("crl_server_requests_total", "outcome", "unknown_ca")
	mFetchBytes   = obs.Default().Histogram("crl_fetch_bytes", obs.SizeBuckets)
)

func fetchOutcomeCounter(ca string, outcome Outcome) *obs.Counter {
	return obs.Default().Counter("crl_fetch_total", "ca", ca, "outcome", outcome.String())
}

// Server serves the CRLs of many authorities over HTTP, the way CA
// distribution points do. Some production CRL endpoints sit behind
// scrape protections; FailRate simulates those per-endpoint rejections so the
// fetcher's coverage accounting (Appendix B) is exercised.
type Server struct {
	mu          sync.RWMutex
	authorities map[string]*Authority
	failRate    map[string]float64 // CA name -> probability of 403
	rng         *rand.Rand
	rngMu       sync.Mutex
	now         atomic.Int64
}

// NewServer creates a CRL distribution server. seed drives the simulated
// scrape-protection failures.
func NewServer(seed int64) *Server {
	return &Server{
		authorities: make(map[string]*Authority),
		failRate:    make(map[string]float64),
		rng:         rand.New(rand.NewSource(seed)),
	}
}

// SetNow advances the server's simulated clock (CRL thisUpdate stamps).
func (s *Server) SetNow(d simtime.Day) { s.now.Store(int64(d)) }

// Host registers an authority, optionally with a scrape-protection failure
// probability in [0, 1).
func (s *Server) Host(a *Authority, failRate float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.authorities[a.Name()] = a
	s.failRate[a.Name()] = failRate
}

// Names returns the hosted CA names, sorted.
func (s *Server) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.authorities))
	for n := range s.authorities {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Handler serves GET /crl/{ca} with the CA's current CRL in binary form.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /crl/{ca}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("ca")
		s.mu.RLock()
		a, ok := s.authorities[name]
		fail := s.failRate[name]
		s.mu.RUnlock()
		if !ok {
			mServeUnknown.Inc()
			http.Error(w, "unknown CA", http.StatusNotFound)
			return
		}
		if fail > 0 {
			s.rngMu.Lock()
			blocked := s.rng.Float64() < fail
			s.rngMu.Unlock()
			if blocked {
				// Simulated anti-scraping response.
				mServeBlocked.Inc()
				http.Error(w, "automated access denied", http.StatusForbidden)
				return
			}
		}
		mServeOK.Inc()
		list := a.Snapshot(simtime.Day(s.now.Load()))
		w.Header().Set("Content-Type", "application/pkix-crl")
		_, _ = w.Write(list.Marshal())
	})
	return mux
}

// Outcome classifies one daily fetch of one CA's CRL.
type Outcome uint8

// Fetch outcomes. A CA that never appears in the ledger was never attempted
// at all — distinct from OutcomeRetryExhausted (every attempt failed) and
// OutcomeCanceled (the collection run was cut off mid-retry).
const (
	OutcomeOK Outcome = iota
	OutcomeRetryExhausted
	OutcomeCanceled
)

// String names the outcome for metric labels and reports.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeRetryExhausted:
		return "retry_exhausted"
	case OutcomeCanceled:
		return "canceled"
	}
	return "outcome?"
}

// CoverageLedger accumulates per-CA fetch outcomes across daily collection
// runs, reproducing the Appendix B coverage table.
type CoverageLedger struct {
	mu sync.Mutex
	by map[string]*Coverage
}

// Coverage is one CA's fetch record. Attempted = Succeeded + Exhausted +
// Canceled; CAs never attempted have no Coverage row at all.
type Coverage struct {
	CAName    string
	Attempted int
	Succeeded int
	// Exhausted counts collections where every attempt (including retries)
	// failed; Canceled counts collections cut off by context cancellation
	// mid-retry. Both are distinct from "never attempted", which leaves no
	// trace in the ledger.
	Exhausted int
	Canceled  int
}

// Percent returns the success percentage (100% when nothing was attempted).
func (c Coverage) Percent() float64 {
	if c.Attempted == 0 {
		return 100
	}
	return 100 * float64(c.Succeeded) / float64(c.Attempted)
}

// NewCoverageLedger creates an empty ledger.
func NewCoverageLedger() *CoverageLedger {
	return &CoverageLedger{by: make(map[string]*Coverage)}
}

// Record adds one fetch outcome (success or retries-exhausted failure).
func (l *CoverageLedger) Record(ca string, ok bool) {
	if ok {
		l.RecordOutcome(ca, OutcomeOK)
	} else {
		l.RecordOutcome(ca, OutcomeRetryExhausted)
	}
}

// RecordOutcome adds one classified fetch outcome.
func (l *CoverageLedger) RecordOutcome(ca string, o Outcome) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.by[ca]
	if c == nil {
		c = &Coverage{CAName: ca}
		l.by[ca] = c
	}
	c.Attempted++
	switch o {
	case OutcomeOK:
		c.Succeeded++
	case OutcomeRetryExhausted:
		c.Exhausted++
	case OutcomeCanceled:
		c.Canceled++
	}
}

// Rows returns per-CA coverage sorted by ascending success percentage then
// name, the ordering of the paper's Table 7.
func (l *CoverageLedger) Rows() []Coverage {
	l.mu.Lock()
	defer l.mu.Unlock()
	rows := make([]Coverage, 0, len(l.by))
	for _, c := range l.by {
		rows = append(rows, *c)
	}
	sort.Slice(rows, func(i, j int) bool {
		pi, pj := rows[i].Percent(), rows[j].Percent()
		if pi != pj {
			return pi < pj
		}
		return rows[i].CAName < rows[j].CAName
	})
	return rows
}

// Total sums the ledger.
func (l *CoverageLedger) Total() Coverage {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := Coverage{CAName: "Total"}
	for _, c := range l.by {
		t.Attempted += c.Attempted
		t.Succeeded += c.Succeeded
		t.Exhausted += c.Exhausted
		t.Canceled += c.Canceled
	}
	return t
}

// Fetcher downloads CRLs from a Server through resil's client stack — its
// retry loop and its call and attempt spans — and records one outcome per CA
// per collection in a ledger.
type Fetcher struct {
	Base   string // server base URL
	Ledger *CoverageLedger
	// Attempts is the attempt budget per CRL per day, the first included
	// (default 3).
	Attempts int
}

// NewFetcher is the fetcher a main builds: -retry-max is its attempt budget,
// as for every other outbound call.
func NewFetcher(base string, rf *resil.Flags) *Fetcher {
	return &Fetcher{Base: base, Attempts: rf.RetryMax}
}

const (
	// fetchBackoff is the first retry delay: distribution points in the
	// simulation answer instantly, and anti-scraping blocks clear on
	// re-request rather than with time.
	fetchBackoff = 5 * time.Millisecond
	// fetchAttemptTimeout cuts off one download, so a distribution point
	// that accepts and never answers costs a retry, not the whole round.
	fetchAttemptTimeout = 2 * time.Second
)

// retryAll classifies every failed attempt as worth another — the 403s
// anti-scraping endpoints throw included, matching the paper's collection
// methodology. The retry loop itself stops on cancellation.
func retryAll(error) resil.Verdict { return resil.Retryable }

// FetchAll performs one daily collection over the named CAs, returning the
// successfully fetched lists keyed by CA name. Each CA is one call through
// the resilient client, so the ledger sees exactly one outcome per CA per
// day, whatever the attempts beneath it; resil_retries_total{service=
// "crl-fetcher"} counts the retries.
func (f *Fetcher) FetchAll(ctx context.Context, names []string) (map[string]*List, error) {
	attempts := f.Attempts
	if attempts == 0 {
		attempts = 3
	}
	hc := resil.NewHTTPClient(resil.Options{
		Service: "crl-fetcher",
		Policy: resil.Policy{MaxAttempts: attempts, BaseDelay: fetchBackoff, MaxDelay: 100 * fetchBackoff,
			PerAttempt: fetchAttemptTimeout, Classify: retryAll},
	})
	out := make(map[string]*List, len(names))
	for _, name := range names {
		if ctx.Err() != nil {
			// CAs we never reached stay out of the ledger entirely: "never
			// attempted" must stay distinguishable from "retries exhausted".
			return out, ctx.Err()
		}
		list, err := f.fetchOne(ctx, hc, name)
		outcome := OutcomeOK
		switch {
		case err == nil:
			out[name] = list
		case errors.Is(err, context.Canceled), ctx.Err() != nil:
			outcome = OutcomeCanceled
		default:
			outcome = OutcomeRetryExhausted
		}
		if f.Ledger != nil {
			f.Ledger.RecordOutcome(name, outcome)
		}
		fetchOutcomeCounter(name, outcome).Inc()
		if outcome == OutcomeCanceled {
			return out, ctx.Err()
		}
	}
	return out, nil
}

func (f *Fetcher) fetchOne(ctx context.Context, hc *http.Client, name string) (*List, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.Base+"/crl/"+name, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	raw, err := resil.ReadBody(resp, resil.DefaultMaxBodyBytes)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("crl: fetch %s: status %s", name, resp.Status)
	}
	mFetchBytes.Observe(float64(len(raw)))
	return Unmarshal(raw)
}
