package certstore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stalecert/internal/ctlog"
	"stalecert/internal/shard"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

// TestShardedIngestDisjointUnion is the per-shard ingest contract: two
// replicas tail the same log into stores opened as complementary slices,
// each persists
// only its ring slice, the slices are disjoint, their union is the full log,
// and both checkpoints still advance over every entry (the filter must not
// stall the resume position).
func TestShardedIngestDisjointUnion(t *testing.T) {
	log := ctlog.New("sharded-log", ctlog.Shard{})
	srv := ctlog.NewServer(log)
	srv.SetNow(simtime.MustParse("2023-01-01"))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ctlog.NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	day := simtime.MustParse("2022-06-01")
	const total = 60
	for i := uint64(1); i <= total; i++ {
		c := mkCert(t, i, []string{fmt.Sprintf("shardee%03d.com", i)}, 100, 1200)
		if _, err := log.AddChain(c, day); err != nil {
			t.Fatal(err)
		}
	}

	ring := shard.MustRing(2, shard.DefaultVNodes)
	stores := make([]*Store, 2)
	for i := range stores {
		st, err := Open(Options{Dir: t.TempDir(), Slice: &shard.Assignment{Index: i, Count: 2}})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		stores[i] = st
		if _, err := NewIngester(st, client).Sync(ctx); err != nil {
			t.Fatalf("shard %d sync: %v", i, err)
		}
		cp, ok := st.Checkpoint()
		if !ok || cp.NextIndex != total {
			t.Fatalf("shard %d checkpoint = %+v %v, want NextIndex %d despite the filter", i, cp, ok, total)
		}
		if a := st.Slice(); a == nil || a.String() != fmt.Sprintf("%d/2", i) {
			t.Fatalf("shard %d slice = %v", i, a)
		}
	}

	if n := stores[0].Len() + stores[1].Len(); n != total {
		t.Fatalf("slices sum to %d certs (%d + %d), want %d",
			n, stores[0].Len(), stores[1].Len(), total)
	}
	for i, st := range stores {
		if st.Len() == 0 {
			t.Fatalf("shard %d holds nothing — filter or ring is degenerate", i)
		}
	}
	seen := map[x509sim.DedupKey]int{}
	for i, st := range stores {
		for _, c := range st.Certs() {
			if prev, dup := seen[c.DedupKey()]; dup {
				t.Fatalf("cert %v stored on shards %d and %d", c.Names, prev, i)
			}
			seen[c.DedupKey()] = i
			want := ring.Lookup(shard.KeyForDomain(strings.TrimPrefix(c.Names[0], "www.")))
			if want != i {
				t.Fatalf("cert %v landed on shard %d, ring owner is %d", c.Names, i, want)
			}
		}
	}
}

// TestShardedIngestValidation: Open refuses a pinned store opened unsharded,
// as another slice, or pinned under another ring (epoch, vnodes, hash), and
// refuses to pin a store that already ingested unsharded. A refused open
// leaves the store as it was.
func TestShardedIngestValidation(t *testing.T) {
	log := ctlog.New("pin-log", ctlog.Shard{})
	srv := ctlog.NewServer(log)
	srv.SetNow(simtime.MustParse("2023-01-01"))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ctlog.NewClient(ts.URL, ts.Client())
	ctx := context.Background()
	if _, err := log.AddChain(mkCert(t, 1, []string{"pinned.com"}, 100, 1200), simtime.MustParse("2022-06-01")); err != nil {
		t.Fatal(err)
	}
	ingest := func(opts Options) {
		t.Helper()
		st, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewIngester(st, client).Sync(ctx); err != nil {
			t.Fatal(err)
		}
		st.Close()
	}
	refused := func(what string, opts Options, want string) {
		t.Helper()
		st, err := Open(opts)
		if err == nil {
			st.Close()
			t.Errorf("%s: opened", what)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want it to mention %q", what, err, want)
		}
	}

	dir := t.TempDir()
	slice := &shard.Assignment{Index: 1, Count: 3}
	ingest(Options{Dir: dir, Slice: slice})

	// Reopen: the persisted SHARD file survives a restart.
	st, err := Open(Options{Dir: dir, Slice: &shard.Assignment{Index: 1, Count: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Slice(); got == nil || *got != *slice {
		t.Fatalf("reopened slice = %v, want %v", got, slice)
	}
	st.Close()

	refused("unsharded", Options{Dir: dir}, "refusing to open it unsharded")
	refused("slice", Options{Dir: dir, Slice: &shard.Assignment{Index: 2, Count: 3}}, "refusing to open it as shard 2/3")
	refused("count", Options{Dir: dir, Slice: &shard.Assignment{Index: 1, Count: 4}}, "refusing to open it as shard 1/4")

	// A pin from another ring is refused under every slice. No API writes
	// one any more, so these SHARD files are written by hand.
	for name, f := range map[string]shardFile{
		"epoch":  {Epoch: 9, Index: 1, Count: 3, VNodes: shard.DefaultVNodes, Hash: shard.HashName},
		"vnodes": {Epoch: shard.Epoch, Index: 1, Count: 3, VNodes: 64, Hash: shard.HashName},
		"hash":   {Epoch: shard.Epoch, Index: 1, Count: 3, VNodes: shard.DefaultVNodes, Hash: "md5"},
	} {
		foreign := t.TempDir()
		if err := os.CopyFS(foreign, os.DirFS(dir)); err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(foreign, shardFileName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		refused("mismatched "+name, Options{Dir: foreign, Slice: slice}, "re-ingest it into a fresh store")
		refused("mismatched "+name+", unsharded", Options{Dir: foreign}, "re-ingest it into a fresh store")
	}

	// A store that ingested unsharded cannot be pinned after the fact, and
	// the refusal writes no SHARD file.
	plain := t.TempDir()
	ingest(Options{Dir: plain})
	refused("retroactive", Options{Dir: plain, Slice: slice}, "retroactively")
	if _, err := os.Stat(filepath.Join(plain, shardFileName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("refused pin left a SHARD file: %v", err)
	}
	ingest(Options{Dir: plain})
}

// TestParentShardFileOpens: testdata/parent-shard is an empty store the
// commit before Open took the slice pinned to slice 1/3. It opens as 1/3 and
// as nothing else, and pinning a fresh store to 1/3 writes the same bytes.
func TestParentShardFileOpens(t *testing.T) {
	const parent = "testdata/parent-shard"
	slice := &shard.Assignment{Index: 1, Count: 3}
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(parent)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("the parent's 1/3 store opened unsharded")
	}
	st, err := Open(Options{Dir: dir, Slice: slice})
	if err != nil {
		t.Fatalf("open the parent-pinned store: %v", err)
	}
	st.Close()

	fresh := t.TempDir()
	st, err = Open(Options{Dir: fresh, Slice: slice})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	want, err := os.ReadFile(filepath.Join(parent, shardFileName))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(fresh, shardFileName)); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("SHARD for 1/3 = %q, %v; the parent wrote %q", got, err, want)
	}
}
