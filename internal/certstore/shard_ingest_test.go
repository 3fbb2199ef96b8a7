package certstore

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"stalecert/internal/ctlog"
	"stalecert/internal/shard"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

// TestShardedIngestDisjointUnion is the per-shard ingest contract: two
// replicas tail the same log with complementary Keep filters, each persists
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
		st, err := Open(Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		stores[i] = st
		ing := NewIngester(st, client)
		ing.Shard = &ShardConfig{Epoch: 1, Index: i, Count: 2, VNodes: shard.DefaultVNodes, Hash: shard.HashName}
		if _, err := ing.Sync(ctx); err != nil {
			t.Fatalf("shard %d sync: %v", i, err)
		}
		cp, ok := st.Checkpoint()
		if !ok || cp.NextIndex != total {
			t.Fatalf("shard %d checkpoint = %+v %v, want NextIndex %d despite the filter", i, cp, ok, total)
		}
		if sc, ok := st.ShardConfig(); !ok || sc.Label() != fmt.Sprintf("%d/2", i) {
			t.Fatalf("shard %d persisted config = %+v %v", i, sc, ok)
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

// TestShardedIngestValidation: a store pinned to one slice refuses ingest
// under a different slice or under none, and a store that already ingested
// unsharded refuses retroactive pinning.
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

	dir := t.TempDir()
	sc := ShardConfig{Epoch: 2, Index: 1, Count: 3, VNodes: shard.DefaultVNodes, Hash: shard.HashName}

	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ing := NewIngester(st, client)
	ing.Shard = &sc
	if _, err := ing.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Reopen: the persisted SHARD file survives a restart.
	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got, ok := st2.ShardConfig(); !ok || got != sc {
		t.Fatalf("reopened shard config = %+v %v, want %+v", got, ok, sc)
	}

	// Unsharded ingest into the pinned store is refused.
	plain := NewIngester(st2, client)
	if _, err := plain.Sync(ctx); err == nil || !strings.Contains(err.Error(), "refusing unsharded ingest") {
		t.Fatalf("unsharded sync against pinned store: err = %v", err)
	}

	// A different slice is refused; so is a different epoch of the same slice.
	for name, bad := range map[string]ShardConfig{
		"slice": {Epoch: 2, Index: 2, Count: 3, VNodes: shard.DefaultVNodes, Hash: shard.HashName},
		"epoch": {Epoch: 9, Index: 1, Count: 3, VNodes: shard.DefaultVNodes, Hash: shard.HashName},
		"hash":  {Epoch: 2, Index: 1, Count: 3, VNodes: shard.DefaultVNodes, Hash: "md5"},
	} {
		wrong := NewIngester(st2, client)
		wrong.Shard = &bad
		if _, err := wrong.Sync(ctx); err == nil {
			t.Errorf("mismatched %s accepted against pinned store", name)
		}
	}

	// A store that ingested unsharded cannot be pinned after the fact.
	st3, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if _, err := NewIngester(st3, client).Sync(ctx); err != nil {
		t.Fatal(err)
	}
	late := NewIngester(st3, client)
	late.Shard = &sc
	if _, err := late.Sync(ctx); err == nil || !strings.Contains(err.Error(), "retroactively") {
		t.Fatalf("retroactive pinning: err = %v", err)
	}
}
