package crl

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stalecert/internal/obs"
	"stalecert/internal/resil"
	"stalecert/internal/x509sim"
)

// Snapshot metrics. The age is the oldest CA list's, as of the last refresh
// round (rounds run every interval whether or not they succeed).
var (
	mSnapEntries = obs.Default().Gauge("crl_snapshot_entries")
	mSnapAge     = obs.Default().Gauge("crl_snapshot_age_seconds")
)

func snapRefreshCounter(outcome string) *obs.Counter {
	return obs.Default().Counter("crl_snapshot_refresh_total", "outcome", outcome)
}

const (
	// maxMissedRefreshes is how many consecutive refresh rounds one CA's
	// list may miss before Current refuses to answer from it.
	maxMissedRefreshes = 3
	// refreshTimeout bounds one round, so a blackholed distribution point
	// cannot wedge the refresh loop or a first-load request.
	refreshTimeout = 10 * time.Second
	// minRefreshInterval floors Run's cadence: CRLs change daily, and a
	// non-positive interval must not spin. It is also the retry cadence
	// while no complete load exists yet.
	minRefreshInterval = time.Second
)

// Snapshot is the fleet-wide revocation set held in memory: every named CA's
// CRL, fetched through Fetcher (its retries and metrics apply) and
// indexed by the (issuer, serial) CT-join key. Readers get an immutable View
// swapped in atomically by each refresh round; a CA whose fetch fails keeps
// its last-good list, so a view never silently lacks a CA. The zero value
// with Fetcher and Names set is ready to use; safe for concurrent use.
type Snapshot struct {
	Fetcher *Fetcher
	Names   []string // the CAs every view must cover
	// Service labels the crl-refresh root span each round records, so the
	// round's client spans stitch under the daemon that ran it.
	Service string
	// Clock stamps list ages (default: the wall clock).
	Clock resil.Clock

	cur atomic.Pointer[View]

	mu     sync.Mutex
	flight *refreshFlight
	// cas is each CA's latest good list, parallel to Names. Only the
	// in-flight refresh touches it; handing the flight over through mu
	// orders successive rounds.
	cas []caList
}

// refreshFlight is one in-progress refresh round other callers wait on.
type refreshFlight struct {
	done chan struct{}
	err  error
}

// caList is one CA's last successfully fetched list (nil: none yet).
type caList struct {
	name    string
	list    *List
	fetched time.Time
	missed  int // consecutive rounds that failed to replace list
}

// View is one immutable generation of the revocation set.
type View struct {
	byKey   map[x509sim.DedupKey][]Entry
	entries int
	cas     []caList
}

// Lookup returns the revocation entries for one certificate key (nil when
// it is not revoked). The slice is shared: callers must not modify it.
func (v *View) Lookup(key x509sim.DedupKey) []Entry { return v.byKey[key] }

// lagging describes every CA that has missed at least minMissed consecutive
// refreshes, with its list's age at now.
func (v *View) lagging(now time.Time, minMissed int) []string {
	var out []string
	for _, c := range v.cas {
		if c.missed >= minMissed {
			out = append(out, fmt.Sprintf("%s last-good list is %s old (%d missed refreshes)",
				c.name, now.Sub(c.fetched).Round(time.Millisecond), c.missed))
		}
	}
	return out
}

// newView indexes the lists. All entries share one backing array sorted by
// key, so the map holds sub-slices instead of one allocation per revocation.
func newView(cas []caList) *View {
	v := &View{cas: slices.Clone(cas)}
	for _, c := range cas {
		v.entries += len(c.list.Entries)
	}
	all := make([]Entry, 0, v.entries)
	for _, c := range cas {
		all = append(all, c.list.Entries...)
	}
	slices.SortFunc(all, func(a, b Entry) int {
		return cmp.Or(cmp.Compare(a.Issuer, b.Issuer), cmp.Compare(a.Serial, b.Serial),
			cmp.Compare(a.RevokedAt, b.RevokedAt), cmp.Compare(a.Reason, b.Reason))
	})
	v.byKey = make(map[x509sim.DedupKey][]Entry, len(all))
	for i := 0; i < len(all); {
		j := i + 1
		for j < len(all) && all[j].Key() == all[i].Key() {
			j++
		}
		v.byKey[all[i].Key()] = all[i:j:j]
		i = j
	}
	return v
}

func (s *Snapshot) now() time.Time {
	if s.Clock != nil {
		return s.Clock.Now()
	}
	return time.Now()
}

// Current returns the latest view. Before the first complete load it
// performs that load itself — concurrent callers share one fetch — and
// fails if any CA still has no list. It also fails once a CA's list has
// missed maxMissedRefreshes consecutive rounds: evidence that old must not
// pass for live.
func (s *Snapshot) Current(ctx context.Context) (*View, error) {
	v := s.cur.Load()
	if v == nil {
		err := s.await(ctx, true)
		if v = s.cur.Load(); v == nil {
			return nil, fmt.Errorf("crl snapshot never loaded: %w", err)
		}
	}
	if old := v.lagging(s.now(), maxMissedRefreshes); old != nil {
		return nil, fmt.Errorf("crl snapshot too old: %s", strings.Join(old, "; "))
	}
	return v, nil
}

// Ready is a readiness probe: it fails until the first complete load.
func (s *Snapshot) Ready(context.Context) error {
	if s.cur.Load() == nil {
		return errors.New("no complete CRL load yet")
	}
	return nil
}

// Lagging reports the CAs currently served from a last-good list because
// their latest refresh failed, with each list's age; nil when every list is
// fresh (or nothing is loaded yet, which Ready reports).
func (s *Snapshot) Lagging() error {
	v := s.cur.Load()
	if v == nil {
		return nil
	}
	if late := v.lagging(s.now(), 1); late != nil {
		return fmt.Errorf("crl snapshot: %s", strings.Join(late, "; "))
	}
	return nil
}

// Refresh runs one round — fetch every CA, keep last-good for the ones that
// failed, publish a new view if every CA has a list — or joins the round
// already in flight, and waits for it under ctx. The round itself is bounded
// by refreshTimeout, not by ctx: callers sharing it must not fail because one
// of them gave up. The error names the CAs the round could not fetch; a view
// may have been published regardless.
func (s *Snapshot) Refresh(ctx context.Context) error { return s.await(ctx, false) }

// await waits for the round in flight, starting one if there is none. With
// firstLoad set it starts none once a view exists: the caller saw no view,
// but the round that published one ended before it got here.
func (s *Snapshot) await(ctx context.Context, firstLoad bool) error {
	s.mu.Lock()
	f := s.flight
	if f == nil {
		if firstLoad && s.cur.Load() != nil {
			s.mu.Unlock()
			return nil
		}
		f = &refreshFlight{done: make(chan struct{})}
		s.flight = f
		go func() {
			f.err = s.refresh()
			s.mu.Lock()
			s.flight = nil
			s.mu.Unlock()
			close(f.done)
		}()
	}
	s.mu.Unlock()
	select {
	case <-f.done:
		return f.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Snapshot) refresh() error {
	ctx, cancel := context.WithTimeout(context.Background(), refreshTimeout)
	defer cancel()
	// Each round is one root trace of its own: the fetcher's call spans
	// hang under it instead of being orphans or riding a request's trace.
	id := obs.NewRequestID()
	start := time.Now()
	lists, err := s.Fetcher.FetchAll(obs.ContextWithRequestID(ctx, id), s.Names)

	now := s.now()
	if s.cas == nil {
		s.cas = make([]caList, len(s.Names))
	}
	var failed, never []string
	oldest := now
	for i, name := range s.Names {
		c := &s.cas[i]
		switch l := lists[name]; {
		case l != nil:
			*c = caList{name: name, list: l, fetched: now}
		case c.list == nil:
			never = append(never, name)
		default:
			failed = append(failed, name)
			c.missed++
			if c.fetched.Before(oldest) {
				oldest = c.fetched
			}
		}
	}

	outcome := "ok"
	switch {
	case len(never) > 0:
		outcome, err = "failed", roundError(err, "no CRL ever fetched for", never)
	case len(failed) > 0:
		outcome = "partial"
		if len(failed) == len(s.Names) {
			outcome = "failed"
		}
		err = roundError(err, "kept last-good CRL for", failed)
	}
	if len(never) == 0 {
		v := newView(s.cas)
		s.cur.Store(v)
		mSnapEntries.Set(float64(v.entries))
		mSnapAge.Set(now.Sub(oldest).Seconds())
	}
	snapRefreshCounter(outcome).Inc()

	root := obs.SpanRecord{
		TraceID: id.Trace(), SpanID: id.Span(), Service: s.Service, Name: "crl-refresh",
		Kind: obs.SpanStage, Start: start, Duration: time.Since(start), Items: int64(len(lists)),
	}
	if err != nil {
		root.Err = err.Error()
	}
	obs.DefaultSpans().RecordRoot(root)
	return err
}

// roundError names the CAs a round failed on, wrapping the fetcher's own
// error (set only when the round was cut off) when there is one.
func roundError(cause error, what string, names []string) error {
	if cause != nil {
		return fmt.Errorf("%s %s: %w", what, strings.Join(names, ", "), cause)
	}
	return fmt.Errorf("%s %s", what, strings.Join(names, ", "))
}

// Run refreshes every interval (floored at one second) until ctx is done,
// logging the rounds that could not fetch every CA. Until the first complete
// load it retries every second instead.
func (s *Snapshot) Run(ctx context.Context, interval time.Duration) {
	interval = max(interval, minRefreshInterval)
	for {
		err := s.Refresh(ctx)
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			slog.Warn("crl refresh", "service", s.Service, "err", err)
		}
		wait := interval
		if s.cur.Load() == nil {
			wait = minRefreshInterval
		}
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
	}
}
