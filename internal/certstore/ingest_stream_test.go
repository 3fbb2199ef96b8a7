package certstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stalecert/internal/ctlog"
	"stalecert/internal/psl"
	"stalecert/internal/resil"
	"stalecert/internal/shard"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

// streamLog is a log of n single-SAN certificates on distinct e2LDs, with the
// certificates in entry order.
func streamLog(t *testing.T, n int) (*ctlog.Log, []*x509sim.Certificate) {
	t.Helper()
	log := ctlog.New("stream-log", ctlog.Shard{})
	day := simtime.MustParse("2022-06-01")
	certs := make([]*x509sim.Certificate, n)
	for i := range certs {
		certs[i] = mkCert(t, uint64(i+1), []string{fmt.Sprintf("stream%04d.com", i)}, 100, 1200)
		if _, err := log.AddChain(certs[i], day); err != nil {
			t.Fatal(err)
		}
	}
	return log, certs
}

// impatientClient gives up on a failing log after two quick attempts.
func impatientClient(ts *httptest.Server) *ctlog.Client {
	return ctlog.NewClientWithOptions(ts.URL, ts.Client(), resil.Options{
		Service: "stream-test",
		Policy:  resil.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	})
}

// shortPage caps a get-entries request at n entries, as a log may.
func shortPage(r *http.Request, n int) *http.Request {
	if r.URL.Path == "/ct/v1/get-entries" {
		q := r.URL.Query()
		start, _ := strconv.Atoi(q.Get("start"))
		end, _ := strconv.Atoi(q.Get("end"))
		q.Set("end", strconv.Itoa(min(end, start+n-1)))
		r.URL.RawQuery = q.Encode()
	}
	return r
}

// TestSyncSurvivesFailureBetweenBatches is the streaming counterpart of the
// kill-and-restart test: the log starts answering 500 at get-entries page
// failFrom, past the client's retry budget. Sync must fail with exactly the
// whole batches before that page durable and checkpointed; the abandoned
// store reopens as a prefix of the log; and a second Sync against the healed
// log ends where a one-shot ingest of the same log ends — unsharded, and
// under a Keep filter.
func TestSyncSurvivesFailureBetweenBatches(t *testing.T) {
	const (
		total    = 300
		pageSize = 4
		failFrom = 40 // pages 1..39 are served: two whole batches and seven pages of a third
		durable  = (failFrom - 1) / syncBatchPages * syncBatchPages * pageSize
	)
	log, certs := streamLog(t, total)
	slice := &shard.Assignment{Index: 1, Count: 2}

	for _, sharded := range []bool{false, true} {
		t.Run(fmt.Sprintf("sharded=%v", sharded), func(t *testing.T) {
			var pages atomic.Int64
			var healed atomic.Bool
			var lagMidRound []float64
			honest := ctlog.NewServer(log).Handler()
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/ct/v1/get-entries" && !healed.Load() {
					start, _ := strconv.Atoi(r.URL.Query().Get("start"))
					if start/pageSize+1 >= failFrom {
						http.Error(w, "log is unwell", http.StatusInternalServerError)
						return
					}
					if pages.Add(1) > syncBatchPages {
						lagMidRound = append(lagMidRound, mIngestLag.Value()) // Sync is sequential: no race
					}
				}
				honest.ServeHTTP(w, shortPage(r, pageSize))
			}))
			defer ts.Close()

			open := func(dir string) (*Store, error) {
				opts := Options{Dir: dir}
				if sharded {
					opts.Slice = slice
				}
				return Open(opts)
			}
			configure := func(st *Store) *Ingester { return NewIngester(st, impatientClient(ts)) }
			ring := shard.MustRing(slice.Count, shard.DefaultVNodes)
			kept := func(upTo int) []*x509sim.Certificate {
				var out []*x509sim.Certificate
				for _, c := range certs[:upTo] {
					if !sharded || slices.Contains(shard.CertOwners(ring, psl.Default(), c), slice.Index) {
						out = append(out, c)
					}
				}
				return out
			}

			dir := t.TempDir()
			st1, err := open(dir)
			if err != nil {
				t.Fatal(err)
			}
			mIngestLag.Set(0)
			added, err := configure(st1).Sync(context.Background())
			if err == nil {
				t.Fatal("Sync succeeded against a log that fails from page 40 on")
			}
			if want := len(kept(durable)); added != want {
				t.Fatalf("failed Sync reports %d added, want the %d of its whole batches", added, want)
			}
			if got := mIngestLag.Value(); got != total-durable {
				t.Fatalf("certstore_ingest_lag_entries = %v after the failed round, want %d", got, total-durable)
			}
			for _, lag := range lagMidRound {
				if lag == 0 {
					t.Fatalf("certstore_ingest_lag_entries read 0 in the middle of a round: %v", lagMidRound)
				}
			}
			// SIGKILL-equivalent: st1 is abandoned, never Closed.

			st2, err := open(dir)
			if err != nil {
				t.Fatalf("reopen after the failed round: %v", err)
			}
			defer st2.Close()
			if got, want := st2.Certs(), kept(durable); !reflect.DeepEqual(got, want) {
				t.Fatalf("reopened store holds %d certificates, want the %d kept of the log's first %d entries, in order", len(got), len(want), durable)
			}
			cp, ok := st2.Checkpoint()
			if !ok || cp.NextIndex != durable || cp.STHSize != total {
				t.Fatalf("reopened checkpoint = %+v %v, want NextIndex %d under tree size %d", cp, ok, durable, total)
			}

			healed.Store(true)
			added, err = configure(st2).Sync(context.Background())
			if err != nil {
				t.Fatalf("Sync against the healed log: %v", err)
			}
			if want := len(kept(total)) - len(kept(durable)); added != want {
				t.Fatalf("resumed Sync added %d, want %d (duplicates or gaps)", added, want)
			}
			if got := mIngestLag.Value(); got != 0 {
				t.Fatalf("certstore_ingest_lag_entries = %v after a completed round", got)
			}

			oneShot, err := open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer oneShot.Close()
			if _, err := configure(oneShot).Sync(context.Background()); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(st2.Certs(), oneShot.Certs()) {
				t.Fatalf("resumed store holds %d certificates, a one-shot ingest %d, or in another order", st2.Len(), oneShot.Len())
			}
			cp2, _ := st2.Checkpoint()
			cpOne, _ := oneShot.Checkpoint()
			if cp2 != cpOne || cp2.NextIndex != total {
				t.Fatalf("resumed checkpoint %+v, one-shot checkpoint %+v", cp2, cpOne)
			}
		})
	}
}

// TestSyncRefusesEntriesPastTheTreeHead: a log that serves an old tree head
// and answers get-entries with more than the range asked for must not get
// entries past that head into the store, nor the checkpoint past it.
func TestSyncRefusesEntriesPastTheTreeHead(t *testing.T) {
	log, certs := streamLog(t, 20)
	honest := ctlog.NewServer(log).Handler()
	var lying atomic.Bool
	var oldSTH []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case !lying.Load():
		case r.URL.Path == "/ct/v1/get-sth":
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(oldSTH)
			return
		case r.URL.Path == "/ct/v1/get-entries":
			q := r.URL.Query()
			end, _ := strconv.Atoi(q.Get("end"))
			q.Set("end", strconv.Itoa(end+10))
			r.URL.RawQuery = q.Encode()
		}
		honest.ServeHTTP(w, r)
	}))
	defer ts.Close()

	st := openTemp(t, Options{})
	ing := NewIngester(st, impatientClient(ts))
	if added, err := ing.Sync(context.Background()); err != nil || added != 20 {
		t.Fatalf("honest Sync = %d, %v", added, err)
	}

	// The log grows to 30 and keeps that head; then to 45, serving the old
	// head with over-long pages.
	grow := func(from, to int) {
		for i := from; i < to; i++ {
			c := mkCert(t, uint64(i+1), []string{fmt.Sprintf("stream%04d.com", i)}, 100, 1200)
			if _, err := log.AddChain(c, simtime.MustParse("2022-06-02")); err != nil {
				t.Fatal(err)
			}
			certs = append(certs, c)
		}
	}
	grow(20, 30)
	rec := httptest.NewRecorder()
	honest.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/ct/v1/get-sth", nil))
	oldSTH = rec.Body.Bytes()
	grow(30, 45)
	lying.Store(true)

	if added, err := ing.Sync(context.Background()); err == nil {
		t.Fatalf("Sync accepted over-long pages (added %d)", added)
	}
	for _, c := range certs[30:] {
		if _, ok := st.ByFingerprint(c.Fingerprint()); ok {
			t.Fatalf("store holds %v, an entry past the tree head the round fetched", c.Names)
		}
	}
	if cp, _ := st.Checkpoint(); cp.NextIndex != 20 || cp.STHSize != 20 {
		t.Fatalf("checkpoint moved to %+v on a refused round", cp)
	}
}

// TestIdleRoundLeavesTheCheckpoint: a round with nothing new leaves
// CHECKPOINT as it was — the same bytes in the same file, not a fresh copy
// renamed over it — and a round that moved the head still replaces it.
func TestIdleRoundLeavesTheCheckpoint(t *testing.T) {
	log, _ := streamLog(t, 10)
	ts := httptest.NewServer(ctlog.NewServer(log).Handler())
	defer ts.Close()
	st := openTemp(t, Options{})
	ing := NewIngester(st, impatientClient(ts))
	round := func() (os.FileInfo, []byte) {
		t.Helper()
		if _, err := ing.Sync(context.Background()); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(st.dir, checkpointName)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi, raw
	}

	first, raw := round()
	if idle, idleRaw := round(); !os.SameFile(first, idle) || !bytes.Equal(raw, idleRaw) {
		t.Fatalf("an idle round rewrote CHECKPOINT (same file %v, same bytes %v)", os.SameFile(first, idle), bytes.Equal(raw, idleRaw))
	}
	if _, err := log.AddChain(mkCert(t, 11, []string{"stream0010.com"}, 100, 1200), simtime.MustParse("2022-06-02")); err != nil {
		t.Fatal(err)
	}
	if moved, movedRaw := round(); os.SameFile(first, moved) || bytes.Equal(raw, movedRaw) {
		t.Fatalf("a round that moved the head left CHECKPOINT in place:\n%s", movedRaw)
	}
}

// TestSyncStopsScrapingWhenAnAppendFails: the store refuses writes while the
// round is two batches in. The round fails with the store's error, keeps
// whole batches only, and fetches no page past the batch after the one the
// append stage gave up on, instead of scraping the rest of the log.
func TestSyncStopsScrapingWhenAnAppendFails(t *testing.T) {
	const total, pageSize, closeAt = 300, 4, 2*syncBatchPages + 1
	log, certs := streamLog(t, total)
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	honest := ctlog.NewServer(log).Handler()
	var pages atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/ct/v1/get-entries" && pages.Add(1) == closeAt {
			st.Close()
		}
		honest.ServeHTTP(w, shortPage(r, pageSize))
	}))
	defer ts.Close()
	ing := NewIngester(st, impatientClient(ts))
	if _, err := ing.Sync(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync into a store closed mid-round = %v, want ErrClosed", err)
	}
	if got, limit := pages.Load(), int64(4*syncBatchPages); got > limit {
		t.Fatalf("the round fetched %d pages after its store failed, more than %d", got, limit)
	}
	// The store may hold a batch past the checkpoint (closed between that
	// batch's fsync and its checkpoint); the next round dedups it.
	reopened := openTemp(t, Options{Dir: dir})
	cp, _ := reopened.Checkpoint()
	held := reopened.Certs()
	const batch = syncBatchPages * pageSize
	if cp.NextIndex == 0 || cp.NextIndex%batch != 0 || len(held)%batch != 0 || uint64(len(held)) < cp.NextIndex {
		t.Fatalf("checkpoint at %d over %d stored certificates, want whole batches, at least one", cp.NextIndex, len(held))
	}
	if !reflect.DeepEqual(held, certs[:len(held)]) {
		t.Fatalf("reopened store is not the log's first %d certificates in order", len(held))
	}
}

// TestSyncSizesNothingByAnUncheckedHead: an empty store accepts any first
// tree head, so a head claiming 2^40 entries must cost the round no more
// memory than the entries the log actually serves.
func TestSyncSizesNothingByAnUncheckedHead(t *testing.T) {
	log, _ := streamLog(t, 20)
	honest := ctlog.NewServer(log).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/ct/v1/get-sth" {
			honest.ServeHTTP(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		zero32 := strings.Repeat("A", 43) + "="
		fmt.Fprintf(w, `{"log_name":"stream-log","tree_size":%d,"timestamp":1,"sha256_root_hash":"%s","tree_head_signature":"%s"}`,
			uint64(1)<<40, zero32, zero32)
	}))
	defer ts.Close()
	st := openTemp(t, Options{})
	ing := NewIngester(st, impatientClient(ts))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ing.Sync(context.Background())
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Sync completed a round under a head the log cannot serve")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("a round under a 2^40-entry head allocated %d MiB", grew>>20)
	}
	if _, ok := st.Checkpoint(); ok || len(st.Certs()) != 0 {
		t.Fatal("a failed first round left a checkpoint or certificates")
	}
}
