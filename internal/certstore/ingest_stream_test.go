package certstore

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
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
				honest.ServeHTTP(w, r)
			}))
			defer ts.Close()

			open := func(dir string) (*Store, error) {
				opts := Options{Dir: dir}
				if sharded {
					opts.Slice = slice
				}
				return Open(opts)
			}
			configure := func(st *Store) *Ingester {
				ing := NewIngester(st, impatientClient(ts))
				ing.BatchSize = pageSize
				return ing
			}
			kept := func(upTo int) []*x509sim.Certificate {
				var out []*x509sim.Certificate
				for _, c := range certs[:upTo] {
					if !sharded || shard.KeepFunc(*slice, psl.Default())(c) {
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
