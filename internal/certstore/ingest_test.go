package certstore

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"stalecert/internal/core"
	"stalecert/internal/crl"
	"stalecert/internal/ctlog"
	"stalecert/internal/dnssim"
	"stalecert/internal/resil"
	"stalecert/internal/simtime"
	"stalecert/internal/whois"
	"stalecert/internal/x509sim"
)

// countingHandler records the start indexes of get-entries requests so tests
// can prove a resumed ingester does not re-scrape the prefix.
type countingHandler struct {
	inner http.Handler
	mu    sync.Mutex
	start []string
}

func (h *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/ct/v1/get-entries" {
		h.mu.Lock()
		h.start = append(h.start, r.URL.Query().Get("start"))
		h.mu.Unlock()
	}
	h.inner.ServeHTTP(w, r)
}

func (h *countingHandler) starts() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.start...)
}

// managedPred matches the simulator's provider marker convention.
func managedPred(c *x509sim.Certificate) bool {
	for _, n := range c.Names {
		if len(n) > 3 && n[:3] == "sni" {
			return true
		}
	}
	return false
}

// TestIngesterKillAndRestart is the subsystem's acceptance test: ingest N
// entries, stop without any graceful shutdown (SIGKILL-equivalent — the old
// Store is simply abandoned with its file handle open), reopen the store,
// and verify the ingester resumes from the persisted checkpoint with no
// duplicate or missing index entries; then verify a per-domain staleness
// query against the store matches the batch pipeline's verdict.
func TestIngesterKillAndRestart(t *testing.T) {
	log := ctlog.New("resume-log", ctlog.Shard{})
	srv := ctlog.NewServer(log)
	srv.SetNow(simtime.MustParse("2023-01-01"))
	counter := &countingHandler{inner: srv.Handler()}
	ts := httptest.NewServer(counter)
	defer ts.Close()
	client := ctlog.NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	day := simtime.MustParse("2022-06-01")
	var all []*x509sim.Certificate
	addCert := func(serial uint64, names []string, nb, na simtime.Day) {
		t.Helper()
		c := mkCert(t, serial, names, nb, na)
		if _, err := log.AddChain(c, day); err != nil {
			t.Fatal(err)
		}
		all = append(all, c)
	}

	// Phase 1: 40 plain + some staleness-relevant certificates.
	for i := uint64(1); i <= 40; i++ {
		addCert(i, []string{fmt.Sprintf("site%02d.com", i)}, 100, 1200)
	}
	// A revoked-but-valid cert, a registrant-change victim, and a
	// provider-managed cert whose customer departed.
	addCert(100, []string{"revoked.com"}, 100, 1200)
	addCert(101, []string{"resold.com"}, 100, 1200)
	addCert(102, []string{"migrated.com", "sni4242.cloudflaressl.com"}, 100, 1200)

	dir := t.TempDir()
	store1, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ing1 := NewIngester(store1, client)
	added, err := ing1.Sync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if added != len(all) {
		t.Fatalf("first sync added %d, want %d", added, len(all))
	}
	cp, ok := store1.Checkpoint()
	if !ok || cp.NextIndex != uint64(len(all)) {
		t.Fatalf("checkpoint = %+v %v", cp, ok)
	}
	// SIGKILL-equivalent: store1 is abandoned, never Closed.

	// Phase 2: the log grows while the ingester is down.
	var phase2 []*x509sim.Certificate
	for i := uint64(50); i < 65; i++ {
		c := mkCert(t, i, []string{fmt.Sprintf("late%02d.net", i)}, 200, 1300)
		if _, err := log.AddChain(c, day+1); err != nil {
			t.Fatal(err)
		}
		phase2 = append(phase2, c)
	}
	firstBatchGets := len(counter.starts())

	store2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	defer store2.Close()
	if store2.Len() != len(all) {
		t.Fatalf("reopened store has %d certs, want %d", store2.Len(), len(all))
	}
	ing2 := NewIngester(store2, client)
	added, err = ing2.Sync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if added != len(phase2) {
		t.Fatalf("resume sync added %d, want %d (duplicates or missing)", added, len(phase2))
	}
	if store2.Len() != len(all)+len(phase2) {
		t.Fatalf("store has %d certs, want %d", store2.Len(), len(all)+len(phase2))
	}
	// The resumed scrape must start at the checkpoint, not index 0.
	resumed := counter.starts()[firstBatchGets:]
	if len(resumed) == 0 {
		t.Fatal("resume issued no get-entries")
	}
	if resumed[0] != fmt.Sprint(len(all)) {
		t.Fatalf("resume started get-entries at %s, want %d", resumed[0], len(all))
	}
	// Every entry indexed exactly once.
	for _, c := range append(append([]*x509sim.Certificate{}, all...), phase2...) {
		if _, ok := store2.ByFingerprint(c.Fingerprint()); !ok {
			t.Fatalf("missing cert %v after resume", c)
		}
	}
	cp, _ = store2.Checkpoint()
	if cp.NextIndex != uint64(len(all)+len(phase2)) {
		t.Fatalf("final checkpoint = %+v", cp)
	}

	// Idempotence: a third sync with nothing new adds nothing.
	added, err = ing2.Sync(ctx)
	if err != nil || added != 0 {
		t.Fatalf("no-op sync = %d, %v", added, err)
	}

	// The staleness verdict served off the store must match the batch
	// pipeline run over the same corpus and events.
	evidence := core.DomainEvidence{
		Revocations: []crl.Entry{
			{Issuer: all[40].Issuer, Serial: 100, RevokedAt: 600, Reason: crl.KeyCompromise},
		},
		ReRegistrations: []whois.ReRegistration{
			{Domain: "resold.com", NewCreation: 700, PrevCreation: 50},
		},
		Departures: []dnssim.Departure{
			{Domain: "migrated.com", LastSeen: 799, FirstGone: 800},
		},
		RevocationCutoff: simtime.NoDay,
		IsManaged:        managedPred,
	}

	batch := core.NewCorpus(store2.Certs(), core.CorpusOptions{PSL: store2.PSL()})
	var batchAll []core.StaleCert
	revoked, _ := core.DetectRevoked(batch, evidence.Revocations, simtime.NoDay)
	batchAll = append(batchAll, revoked...)
	batchAll = append(batchAll, core.DetectRegistrantChange(batch, evidence.ReRegistrations)...)
	batchAll = append(batchAll, core.DetectManagedTLSDeparture(batch, evidence.Departures, managedPred)...)

	for _, domain := range []string{"revoked.com", "resold.com", "migrated.com", "site01.com", "cloudflaressl.com"} {
		live := core.DomainStaleness(store2, domain, evidence)
		inDomain := make(map[x509sim.Fingerprint]bool)
		for _, c := range store2.ByE2LD(domain) {
			inDomain[c.Fingerprint()] = true
		}
		var want []string
		for _, s := range batchAll {
			switch s.Method {
			case core.MethodRevocation:
				if !inDomain[s.Cert.Fingerprint()] {
					continue
				}
			default:
				if s.Domain != domain {
					continue
				}
			}
			want = append(want, staleKey(s))
		}
		var got []string
		for _, s := range live {
			got = append(got, staleKey(s))
		}
		sort.Strings(want)
		sort.Strings(got)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("domain %s: store verdict %v != batch verdict %v", domain, got, want)
		}
	}
}

func staleKey(s core.StaleCert) string {
	return fmt.Sprintf("%s/%s/%d/%d", s.Cert.Fingerprint(), s.Method, s.EventDay, s.Reason)
}

// TestIngesterDetectsRewrittenLog swaps the log behind the checkpoint: the
// resumed ingester must refuse to continue.
func TestIngesterDetectsRewrittenLog(t *testing.T) {
	day := simtime.MustParse("2022-06-01")
	mkLog := func(names ...string) *ctlog.Log {
		l := ctlog.New("swap-log", ctlog.Shard{})
		for i, n := range names {
			if _, err := l.AddChain(mkCert(t, uint64(i+1), []string{n}, 100, 1200), day); err != nil {
				t.Fatal(err)
			}
		}
		return l
	}
	logA := mkLog("a1.com", "a2.com", "a3.com")
	srvA := ctlog.NewServer(logA)
	tsA := httptest.NewServer(srvA.Handler())
	defer tsA.Close()

	dir := t.TempDir()
	store, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ing := NewIngester(store, ctlog.NewClient(tsA.URL, tsA.Client()))
	if _, err := ing.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	store.Close()

	// Different history, larger tree: the consistency proof cannot verify.
	logB := mkLog("b1.com", "b2.com", "b3.com", "b4.com")
	srvB := ctlog.NewServer(logB)
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()

	store2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	ing2 := NewIngester(store2, ctlog.NewClient(tsB.URL, tsB.Client()))
	if _, err := ing2.Sync(context.Background()); err == nil {
		t.Fatal("resumed ingester accepted a rewritten log")
	}
}

// TestIngesterSurvivesLogRestart kills the log server mid-tail and restarts
// it on the same address: Run must ride out the outage with backoff, keep
// the checkpoint, and resume with no gap or duplicate entries.
func TestIngesterSurvivesLogRestart(t *testing.T) {
	log := ctlog.New("restart-log", ctlog.Shard{})
	day := simtime.MustParse("2022-06-01")
	var all []*x509sim.Certificate
	addCerts := func(from, to uint64) {
		t.Helper()
		for i := from; i <= to; i++ {
			c := mkCert(t, i, []string{fmt.Sprintf("restart%03d.com", i)}, 100, 1200)
			if _, err := log.AddChain(c, day); err != nil {
				t.Fatal(err)
			}
			all = append(all, c)
		}
	}
	addCerts(1, 20)

	srv := ctlog.NewServer(log)
	srv.SetNow(simtime.MustParse("2023-01-01"))
	serve := func() (*http.Server, string) {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go func() { _ = hs.Serve(ln) }()
		return hs, ln.Addr().String()
	}
	rebind := func(addr string) *http.Server {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			ln, err := net.Listen("tcp", addr)
			if err == nil {
				hs := &http.Server{Handler: srv.Handler()}
				go func() { _ = hs.Serve(ln) }()
				return hs
			}
			if time.Now().After(deadline) {
				t.Fatalf("rebind %s: %v", addr, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	hs1, addr := serve()
	client := ctlog.NewClientWithOptions("http://"+addr, nil, resil.Options{
		Service: "restart-test", // no breaker: the test wants raw reconnect behaviour, not fail-fast
		Policy:  resil.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	})

	store, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ing := NewIngester(store, client)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var stored []*x509sim.Certificate
	errRounds := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		ing.Run(ctx, 2*time.Millisecond, func(round []*x509sim.Certificate, err error) {
			mu.Lock()
			stored = append(stored, round...)
			if err != nil && ctx.Err() == nil {
				errRounds++
			}
			mu.Unlock()
		})
	}()

	waitFor := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	waitFor(func() bool { return store.Len() == 20 }, "initial tail")

	// Kill the server mid-tail and grow the log while it is down.
	_ = hs1.Close()
	addCerts(21, 35)
	waitFor(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return errRounds > 0
	}, "a failed round during the outage")

	hs2 := rebind(addr)
	defer hs2.Close()
	waitFor(func() bool { return store.Len() == len(all) }, "resume after restart")

	cancel()
	<-done

	// No gap, no duplicate: every cert present, the rounds handed over
	// exactly the store's certificates in order, checkpoint at the head.
	mu.Lock()
	if len(stored) != len(all) || !reflect.DeepEqual(stored, store.Certs()) {
		t.Fatalf("rounds stored %d certificates, want the store's %d in order (duplicates or gaps)", len(stored), len(all))
	}
	mu.Unlock()
	for _, c := range all {
		if _, ok := store.ByFingerprint(c.Fingerprint()); !ok {
			t.Fatalf("missing cert %v after restart", c)
		}
	}
	cp, ok := store.Checkpoint()
	if !ok || cp.NextIndex != uint64(len(all)) {
		t.Fatalf("checkpoint = %+v %v, want NextIndex %d", cp, ok, len(all))
	}
}
