package crl

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"stalecert/internal/obs"
	"stalecert/internal/resil"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

// distPoint is a CRL distribution point whose per-CA content and
// scrape-protection blocks the test controls between refresh rounds.
type distPoint struct {
	mu      sync.Mutex
	lists   map[string][]Entry
	blocked map[string]bool
	hits    map[string]int
	gate    func() // runs before each request is answered
}

func newDistPoint(t *testing.T) (*distPoint, *httptest.Server) {
	t.Helper()
	d := &distPoint{lists: map[string][]Entry{}, blocked: map[string]bool{}, hits: map[string]int{}}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimPrefix(r.URL.Path, "/crl/")
		d.mu.Lock()
		gate := d.gate
		d.hits[name]++
		blocked := d.blocked[name]
		l := &List{CAName: name, Entries: d.lists[name]}
		d.mu.Unlock()
		if gate != nil {
			gate()
		}
		if blocked {
			http.Error(w, "automated access denied", http.StatusForbidden)
			return
		}
		_, _ = w.Write(l.Marshal())
	}))
	t.Cleanup(ts.Close)
	return d, ts
}

func (d *distPoint) set(name string, entries ...Entry) {
	d.mu.Lock()
	d.lists[name] = entries
	d.mu.Unlock()
}

func (d *distPoint) block(name string, on bool) {
	d.mu.Lock()
	d.blocked[name] = on
	d.mu.Unlock()
}

func (d *distPoint) setGate(gate func()) {
	d.mu.Lock()
	d.gate = gate
	d.mu.Unlock()
}

func (d *distPoint) hitCount(name string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hits[name]
}

func entry(issuer, serial, day int) Entry {
	return Entry{Issuer: x509sim.IssuerID(issuer), Serial: x509sim.SerialNumber(serial),
		RevokedAt: simtime.Day(day), Reason: Superseded}
}

func newTestSnapshot(ts *httptest.Server, clock resil.Clock, names ...string) *Snapshot {
	return &Snapshot{
		Fetcher: &Fetcher{Base: ts.URL, Attempts: 2},
		Names:   names,
		Service: "snapshot-test",
		Clock:   clock,
	}
}

// TestSnapshotKeepsLastGoodPerCA is the regression test for silently
// incomplete revocation evidence: when one CA's distribution point starts
// answering 403, the snapshot must keep that CA's last-good list (never drop
// it), report the CA and its list's age as lagging, take fresh lists from the
// healthy CA meanwhile, and refuse to answer once the list has missed
// maxMissedRefreshes rounds — until the CA recovers.
func TestSnapshotKeepsLastGoodPerCA(t *testing.T) {
	d, ts := newDistPoint(t)
	d.set("Good", entry(1, 1, 10))
	d.set("Flaky", entry(2, 7, 10))
	clock := resil.NewFakeClock(time.Unix(1_700_000_000, 0))
	s := newTestSnapshot(ts, clock, "Good", "Flaky")
	ctx := context.Background()

	if err := s.Ready(ctx); err == nil {
		t.Fatal("Ready before any load = nil, want an error")
	}
	v, err := s.Current(ctx)
	if err != nil {
		t.Fatalf("first Current: %v", err)
	}
	if v.entries != 2 || len(v.Lookup(entry(2, 7, 0).Key())) != 1 {
		t.Fatalf("first view: %d entries, Flaky lookup %v", v.entries, v.Lookup(entry(2, 7, 0).Key()))
	}
	if err := s.Ready(ctx); err != nil {
		t.Fatalf("Ready after load: %v", err)
	}
	if err := s.Lagging(); err != nil {
		t.Fatalf("Lagging after a clean load: %v", err)
	}

	d.block("Flaky", true)
	d.set("Good", entry(1, 1, 10), entry(1, 2, 11))
	for round := 1; round < maxMissedRefreshes; round++ {
		clock.Advance(7 * time.Second)
		if err := s.Refresh(ctx); err == nil || !strings.Contains(err.Error(), "Flaky") {
			t.Fatalf("round %d: Refresh error = %v, want one naming Flaky", round, err)
		}
		v, err := s.Current(ctx)
		if err != nil {
			t.Fatalf("round %d: Current: %v", round, err)
		}
		if len(v.Lookup(entry(2, 7, 0).Key())) != 1 {
			t.Fatalf("round %d: the failing CA's revocation was dropped", round)
		}
		if len(v.Lookup(entry(1, 2, 0).Key())) != 1 {
			t.Fatalf("round %d: the healthy CA's new revocation is missing", round)
		}
		lag := s.Lagging()
		want := fmt.Sprintf("Flaky last-good list is %ds old (%d missed refreshes)", 7*round, round)
		if lag == nil || !strings.Contains(lag.Error(), want) || strings.Contains(lag.Error(), "Good") {
			t.Fatalf("round %d: Lagging = %v, want only %q", round, lag, want)
		}
	}

	clock.Advance(7 * time.Second)
	_ = s.Refresh(ctx)
	if _, err := s.Current(ctx); err == nil || !strings.Contains(err.Error(), "Flaky") {
		t.Fatalf("Current after %d missed refreshes = %v, want an error naming Flaky", maxMissedRefreshes, err)
	}

	d.block("Flaky", false)
	if err := s.Refresh(ctx); err != nil {
		t.Fatalf("Refresh after recovery: %v", err)
	}
	if _, err := s.Current(ctx); err != nil {
		t.Fatalf("Current after recovery: %v", err)
	}
	if err := s.Lagging(); err != nil {
		t.Fatalf("Lagging after recovery: %v", err)
	}
}

// TestSnapshotNeverLoadedIsAnError: a CA that has never produced a list makes
// the whole snapshot unusable — a verdict must not be computed without it —
// while the lists that did load are kept for the round that completes it.
func TestSnapshotNeverLoadedIsAnError(t *testing.T) {
	d, ts := newDistPoint(t)
	d.set("Good", entry(1, 1, 10))
	d.set("Blocked", entry(2, 7, 10))
	d.block("Blocked", true)
	s := newTestSnapshot(ts, nil, "Good", "Blocked")
	ctx := context.Background()

	if _, err := s.Current(ctx); err == nil || !strings.Contains(err.Error(), "never loaded") ||
		!strings.Contains(err.Error(), "Blocked") {
		t.Fatalf("Current = %v, want a never-loaded error naming Blocked", err)
	}
	if err := s.Ready(ctx); err == nil {
		t.Fatal("Ready = nil with a CA never loaded")
	}

	// Good goes dark just as Blocked opens up: its list from the failed
	// round completes the snapshot.
	d.block("Blocked", false)
	d.block("Good", true)
	v, err := s.Current(ctx)
	if err != nil {
		t.Fatalf("Current once every CA has loaded at least once: %v", err)
	}
	if v.entries != 2 {
		t.Fatalf("view has %d entries, want both CAs' lists", v.entries)
	}
	if err := s.Lagging(); err == nil || !strings.Contains(err.Error(), "Good") {
		t.Fatalf("Lagging = %v, want Good", err)
	}
}

// TestSnapshotConcurrentFirstRequestsShareOneLoad: requests arriving before
// the first load each call Current; together they must cost exactly one fetch
// per CA, whether they join the round in flight or arrive after it.
func TestSnapshotConcurrentFirstRequestsShareOneLoad(t *testing.T) {
	d, ts := newDistPoint(t)
	d.set("A", entry(1, 1, 10))
	d.set("B", entry(2, 2, 10))
	s := newTestSnapshot(ts, nil, "A", "B")

	const callers = 16
	var started, done sync.WaitGroup
	started.Add(callers)
	d.setGate(started.Wait) // no answer until every caller is on its way
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			started.Done()
			v, err := s.Current(context.Background())
			if err == nil && v.entries != 2 {
				err = fmt.Errorf("view has %d entries, want 2", v.entries)
			}
			errs <- err
		}()
	}
	done.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if a, b := d.hitCount("A"), d.hitCount("B"); a != 1 || b != 1 {
		t.Fatalf("fetches: A=%d B=%d, want exactly one load shared by %d callers", a, b, callers)
	}
}

// TestSnapshotCanceledWaiterDoesNotFailTheRound: a caller that gives up
// returns at once; the round it started still completes for the others.
func TestSnapshotCanceledWaiterDoesNotFailTheRound(t *testing.T) {
	d, ts := newDistPoint(t)
	d.set("A", entry(1, 1, 10))
	release := make(chan struct{})
	d.setGate(func() { <-release })
	s := newTestSnapshot(ts, nil, "A")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Current(ctx); err == nil {
		t.Fatal("Current under a canceled context = nil error")
	}
	close(release)
	if v, err := s.Current(context.Background()); err != nil || v.entries != 1 {
		t.Fatalf("Current after the abandoned round: %v, %v", v, err)
	}
	if n := d.hitCount("A"); n != 1 {
		t.Fatalf("A fetched %d times, want the abandoned round to have been joined", n)
	}
}

// TestSnapshotSwapIsAtomicForReaders: while refresh rounds alternate the
// whole directory between two generations, every view a concurrent reader
// obtains is entirely one generation — across CAs — and never torn.
func TestSnapshotSwapIsAtomicForReaders(t *testing.T) {
	d, ts := newDistPoint(t)
	setGen := func(day int) {
		for ca := 1; ca <= 2; ca++ {
			var es []Entry
			for serial := 1; serial <= 50; serial++ {
				es = append(es, entry(ca, serial, day))
			}
			d.set(fmt.Sprintf("CA%d", ca), es...)
		}
	}
	setGen(100)
	s := newTestSnapshot(ts, nil, "CA1", "CA2")
	ctx := context.Background()
	if err := s.Refresh(ctx); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, err := s.Current(ctx)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				gen := v.Lookup(entry(1, 1, 0).Key())[0].RevokedAt
				for ca := 1; ca <= 2; ca++ {
					for serial := 1; serial <= 50; serial++ {
						es := v.Lookup(entry(ca, serial, 0).Key())
						if len(es) != 1 || es[0].RevokedAt != gen {
							t.Errorf("torn view: CA%d serial %d = %v in generation %v", ca, serial, es, gen)
							return
						}
					}
				}
				runtime.Gosched()
			}
		}()
	}
	for round := 0; round < 20; round++ {
		setGen(100 + round%2)
		if err := s.Refresh(ctx); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()
}

// TestSnapshotViewKeepsDuplicateEntries: two lists naming the same (issuer,
// serial) both survive the join, as they do in a flat concatenation.
func TestSnapshotViewKeepsDuplicateEntries(t *testing.T) {
	d, ts := newDistPoint(t)
	d.set("A", entry(1, 5, 20))
	d.set("B", entry(1, 5, 10), entry(1, 6, 10))
	s := newTestSnapshot(ts, nil, "A", "B")
	v, err := s.Current(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := v.Lookup(entry(1, 5, 0).Key())
	if len(got) != 2 || got[0].RevokedAt != 10 || got[1].RevokedAt != 20 {
		t.Fatalf("Lookup = %v, want both entries in day order", got)
	}
	if len(v.Lookup(entry(1, 6, 0).Key())) != 1 || v.Lookup(entry(9, 9, 0).Key()) != nil || v.entries != 3 {
		t.Fatalf("view = %+v", v.byKey)
	}
}

// TestSnapshotRefreshIsOneRootTrace: a refresh round's fetches hang under a
// crl-refresh root span carrying the daemon's service name — one call span
// per CA with its attempt beneath — and the round shows in the snapshot
// metric families.
func TestSnapshotRefreshIsOneRootTrace(t *testing.T) {
	prev := obs.DefaultSpans()
	spans := obs.NewSpanStore(16, 1, 0)
	spans.Registry = obs.NewRegistry()
	obs.SetDefaultSpans(spans)
	defer obs.SetDefaultSpans(prev)

	d, ts := newDistPoint(t)
	d.set("A", entry(1, 1, 10), entry(1, 2, 10))
	d.set("B", entry(2, 1, 10))
	s := newTestSnapshot(ts, nil, "A", "B")
	okBefore := snapRefreshCounter("ok").Value()
	if err := s.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := snapRefreshCounter("ok").Value() - okBefore; got != 1 {
		t.Errorf("crl_snapshot_refresh_total{outcome=ok} moved by %d, want 1", got)
	}
	if got := mSnapEntries.Value(); got != 3 {
		t.Errorf("crl_snapshot_entries = %v, want 3", got)
	}

	traces := spans.Traces(obs.TraceFilter{WithSpans: true})
	if len(traces) != 1 {
		t.Fatalf("kept %d traces, want the one refresh round", len(traces))
	}
	if traces[0].Root != "snapshot-test crl-refresh" {
		t.Errorf("trace root = %q", traces[0].Root)
	}
	roots := obs.BuildSpanTree(traces[0].Spans)
	if len(roots) != 1 || len(roots[0].Children) != 2 {
		t.Fatalf("span tree: %d roots, want 1 with both fetches under it: %+v", len(roots), traces[0].Spans)
	}
	for _, c := range roots[0].Children {
		if c.Kind != obs.SpanCall || !strings.HasPrefix(c.Name, "GET /crl/") || len(c.Children) != 1 ||
			c.Children[0].Kind != obs.SpanClient || c.Children[0].Attempt != 1 {
			t.Errorf("child span = %s %q with %d children, want a fetch call over one attempt", c.Kind, c.Name, len(c.Children))
		}
	}
}

// millionRevocations spreads 10⁶ revocations over ten CAs, serials scattered
// the way issued serials are.
func millionRevocations() []caList {
	const perCA = 100_000
	cas := make([]caList, 10)
	for ca := range cas {
		es := make([]Entry, perCA)
		for i := range es {
			es[i] = entry(ca+1, 0, 19000+i%365)
			es[i].Serial = x509sim.SerialNumber(uint64(i+1) * 0x9E3779B97F4A7C15)
		}
		name := fmt.Sprintf("CA%d", ca)
		cas[ca] = caList{name: name, list: &List{CAName: name, Entries: es}}
	}
	return cas
}

// BenchmarkSnapshotBuild1M times indexing one refresh round's lists at 10⁶
// revocations and reports the heap the finished view retains.
func BenchmarkSnapshotBuild1M(b *testing.B) {
	cas := millionRevocations()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var v *View
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v = newView(cas)
	}
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/float64(v.entries), "heapB/revocation")
	runtime.KeepAlive(v)
}

// BenchmarkSnapshotLookup1M times the per-certificate join against a 10⁶
// revocation view, half the keys revoked and half not.
func BenchmarkSnapshotLookup1M(b *testing.B) {
	cas := millionRevocations()
	v := newView(cas)
	keys := make([]x509sim.DedupKey, 1<<16)
	for i := range keys {
		e := cas[i%len(cas)].list.Entries[(i*7919)%100_000]
		if i%2 == 1 {
			e.Serial++ // a neighbour that is not revoked
		}
		keys[i] = e.Key()
	}
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits += len(v.Lookup(keys[i&(len(keys)-1)]))
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hits/lookup")
}
