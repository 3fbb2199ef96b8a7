package shard

import (
	"encoding/json"
	"reflect"
	"testing"
)

// A replica agrees with the gateway only when its self-report names this
// build's ring and exactly the slice the gateway's -shards text gives it.
func TestReplicatedAgrees(t *testing.T) {
	self := NewSelf(&Assignment{Index: 1, Count: 2}, 0)
	if err := self.Agrees(1, 2); err != nil {
		t.Fatalf("consistent self-report rejected: %v", err)
	}
	if err := NewSelf(nil, 0).Agrees(0, 1); err != nil {
		t.Fatalf("whole-keyspace self-report rejected for a one-slice fleet: %v", err)
	}
	for name, edit := range map[string]func(*Self){
		"version": func(s *Self) { s.Version++ },
		// A replica restarted into the next epoch, its slice still right.
		"epoch":  func(s *Self) { s.Epoch++ },
		"hash":   func(s *Self) { s.Hash = "md5" },
		"vnodes": func(s *Self) { s.VNodes++ },
		// A mis-pinned SHARD file: the replica serves another slice.
		"slice": func(s *Self) { s.Shard = Assignment{0, 2} },
		// A replica from a differently-sharded deployment.
		"count": func(s *Self) { s.Shard = Assignment{1, 3} },
	} {
		bad := self
		edit(&bad)
		if err := bad.Agrees(1, 2); err == nil {
			t.Errorf("mismatched %s accepted", name)
		}
	}
}

// NewMap renders a coherent view: this build's ring parameters, slices at
// indexes 0..N-1 that each name a replica, a ring of that shape, and a
// replica of this build at slice i agrees with the place the view gives it.
func TestMapValidateAndAgrees(t *testing.T) {
	m := NewMap([][]string{{"http://a"}, {"http://b"}})
	if m.Version != MapVersion || m.Epoch != Epoch || m.Hash != HashName || m.VNodes != DefaultVNodes {
		t.Fatalf("map parameters %d/%d/%q/%d are not this build's", m.Version, m.Epoch, m.Hash, m.VNodes)
	}
	if _, err := NewRing(len(m.Shards), m.VNodes); err != nil {
		t.Fatal(err)
	}
	for i, sh := range m.Shards {
		if sh.Index != i || sh.Addr == "" {
			t.Fatalf("slice %d rendered as %+v", i, sh)
		}
		if err := NewSelf(&Assignment{Index: i, Count: len(m.Shards)}, 0).Agrees(i, len(m.Shards)); err != nil {
			t.Fatalf("consistent self-report rejected at slice %d: %v", i, err)
		}
	}
	if err := NewSelf(&Assignment{Index: 0, Count: 2}, 0).Agrees(1, len(m.Shards)); err == nil {
		t.Error("replica claiming slice 0 accepted at slice 1")
	}
}

// The rendered view decodes back to itself: a replicated slice keeps its
// first replica as addr and its full replica list, a single one only addr.
func TestReplicatedMapJSONRoundTrip(t *testing.T) {
	m := NewMap([][]string{
		{"http://a0", "http://a1"},
		{"http://b"},
	})
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Map
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, m) {
		t.Fatalf("round-tripped map = %+v, want %+v", back, m)
	}
	if sh := back.Shards[0]; sh.Addr != "http://a0" || len(sh.Replicas) != 2 || sh.Replicas[1] != "http://a1" {
		t.Fatalf("round-tripped replicated slice = %+v", sh)
	}
	if sh := back.Shards[1]; sh.Addr != "http://b" || len(sh.Replicas) != 0 {
		t.Fatalf("round-tripped single slice = %+v", sh)
	}
}
