package certstore

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"stalecert/internal/ctlog"
	"stalecert/internal/shard"
	"stalecert/internal/simtime"
)

// swapServer serves whichever log it was last handed at one address, and
// counts requests per path: a log swapped under a running ingester.
type swapServer struct {
	log  atomic.Pointer[http.Handler]
	mu   sync.Mutex
	seen map[string]int
}

func (s *swapServer) serve(l *ctlog.Log) {
	h := ctlog.NewServer(l).Handler()
	s.log.Store(&h)
}

func (s *swapServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.seen[r.URL.Path]++
	s.mu.Unlock()
	(*s.log.Load()).ServeHTTP(w, r)
}

// took returns the requests per path since the last call.
func (s *swapServer) took() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.seen
	s.seen = map[string]int{}
	return out
}

// headLog is a log of n certificates named after prefix: two logs of
// different prefixes share no history.
func headLog(t *testing.T, prefix string, n int) *ctlog.Log {
	t.Helper()
	l := ctlog.New("head-log", ctlog.Shard{})
	growLog(t, l, prefix, 0, n)
	return l
}

func growLog(t *testing.T, l *ctlog.Log, prefix string, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		c := mkCert(t, uint64(i+1), []string{fmt.Sprintf("%s%03d.com", prefix, i)}, 100, 1200)
		if _, err := l.AddChain(c, simtime.MustParse("2022-06-01")); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSyncVerifiesTheHeadEveryRound: one ingester, never restarted, checks
// every round's tree head against the checkpointed one — an equal-sized log
// of another history, a shrunken one and a grown one whose proof cannot
// verify are all refused with the checkpoint unmoved, a log that really grew
// is accepted — and a round costs one get-sth, plus one
// get-sth-consistency exactly when the log grew. Unsharded and as slice 0/2.
func TestSyncVerifiesTheHeadEveryRound(t *testing.T) {
	const (
		sthPath   = "/ct/v1/get-sth"
		proofPath = "/ct/v1/get-sth-consistency"
	)
	for _, sharded := range []bool{false, true} {
		t.Run(fmt.Sprintf("sharded=%v", sharded), func(t *testing.T) {
			ctx := context.Background()
			srv := &swapServer{seen: map[string]int{}}
			honest := headLog(t, "honest", 8)
			srv.serve(honest)
			ts := httptest.NewServer(srv)
			defer ts.Close()

			opts := Options{}
			if sharded {
				opts.Slice = &shard.Assignment{Index: 0, Count: 2}
			}
			st := openTemp(t, opts)
			ing := NewIngester(st, impatientClient(ts))
			round := func(what string, wantErr bool, wantProofs int) {
				t.Helper()
				before, _ := st.Checkpoint()
				_, err := ing.Sync(ctx)
				if (err != nil) != wantErr {
					t.Fatalf("%s: Sync = %v, want an error: %v", what, err, wantErr)
				}
				if after, _ := st.Checkpoint(); wantErr && after != before {
					t.Fatalf("%s: a refused round moved the checkpoint %+v -> %+v", what, before, after)
				}
				if got := srv.took(); got[sthPath] != 1 || got[proofPath] != wantProofs {
					t.Fatalf("%s: the round took %d get-sth and %d get-sth-consistency, want 1 and %d (%v)",
						what, got[sthPath], got[proofPath], wantProofs, got)
				}
			}

			round("fresh store", false, 0)
			round("idle log", false, 0)

			srv.serve(headLog(t, "other", 8))
			round("swapped for another log of equal size", true, 0)
			srv.serve(headLog(t, "honest", 5))
			round("shrunk", true, 0)
			srv.serve(headLog(t, "other", 12))
			round("swapped for a larger log of another history", true, 1)

			growLog(t, honest, "honest", 8, 12)
			srv.serve(honest)
			round("grown", false, 1)
			if cp, _ := st.Checkpoint(); cp.NextIndex != 12 || cp.STHSize != 12 {
				t.Fatalf("checkpoint after the grown round = %+v", cp)
			}
			round("idle again", false, 0)
		})
	}
}

// TestSyncFailsTheRoundWhenThePersistFails: entries the store refused are not
// skipped. The round errors with the checkpoint where it was, and a later
// round over a store that takes writes again fetches the same entries.
func TestSyncFailsTheRoundWhenThePersistFails(t *testing.T) {
	ctx := context.Background()
	ts := httptest.NewServer(ctlog.NewServer(headLog(t, "persist", 6)).Handler())
	defer ts.Close()
	dir := t.TempDir()
	st := openTemp(t, Options{Dir: dir})
	ing := NewIngester(st, impatientClient(ts))
	st.Close()
	if added, err := ing.Sync(ctx); !errors.Is(err, ErrClosed) || added != 0 {
		t.Fatalf("Sync into a closed store = %d, %v, want 0 and ErrClosed", added, err)
	}
	reopened := openTemp(t, Options{Dir: dir})
	if cp, ok := reopened.Checkpoint(); ok {
		t.Fatalf("checkpoint %+v covers entries that were never persisted", cp)
	}
	if added, err := NewIngester(reopened, impatientClient(ts)).Sync(ctx); err != nil || added != 6 {
		t.Fatalf("Sync once the store takes writes = %d, %v, want all 6 entries", added, err)
	}
}
