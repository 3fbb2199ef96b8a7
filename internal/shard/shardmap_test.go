package shard

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestReplicatedMapValidate(t *testing.T) {
	m := NewMap([][]string{
		{"http://a0", "http://a1"},
		{"http://b0", "http://b1"},
	})
	if err := m.Validate(); err != nil {
		t.Fatalf("valid 2x2 map rejected: %v", err)
	}
	if got := m.Shards[0].Group(); len(got) != 2 || got[0] != "http://a0" || got[1] != "http://a1" {
		t.Fatalf("Group() = %v", got)
	}
	// Wire compatibility: Addr is the first replica, so a legacy reader
	// that only understands addr still routes somewhere valid.
	if m.Shards[1].Addr != "http://b0" {
		t.Fatalf("Addr = %q, want first replica", m.Shards[1].Addr)
	}

	single := NewMap([][]string{{"http://a"}, {"http://b"}})
	if err := single.Validate(); err != nil {
		t.Fatalf("single-replica groups rejected: %v", err)
	}
	if len(single.Shards[0].Replicas) != 0 {
		t.Fatal("single-address group should use the legacy addr-only wire form")
	}
}

func TestReplicatedMapValidateRejections(t *testing.T) {
	cases := map[string]struct {
		groups [][]string
		want   string
	}{
		"empty group": {
			groups: [][]string{{"http://a"}, {}},
			want:   "empty replica group",
		},
		"empty address": {
			groups: [][]string{{"http://a", ""}, {"http://b"}},
			want:   "empty replica address",
		},
		"duplicate within slice": {
			groups: [][]string{{"http://a", "http://a"}, {"http://b"}},
			want:   "twice",
		},
		"duplicate across slices": {
			groups: [][]string{{"http://a", "http://shared"}, {"http://shared", "http://b"}},
			want:   "serves both slice",
		},
	}
	for name, tc := range cases {
		m := NewMap(tc.groups)
		err := m.Validate()
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}

	// A hand-built member whose addr disagrees with its replica list is
	// ambiguous and must be rejected.
	bad := Map{Version: MapVersion, Epoch: 1, Hash: HashName, VNodes: 64,
		Shards: []Member{{Index: 0, Addr: "http://x", Replicas: []string{"http://a", "http://b"}}}}
	if err := bad.Validate(); err == nil {
		t.Error("addr != replicas[0] accepted")
	}
}

func TestReplicatedAgrees(t *testing.T) {
	m := NewMap([][]string{
		{"http://a0", "http://a1"},
		{"http://b0", "http://b1"},
	})
	ok := NewSelf(&Assignment{Index: 1, Count: 2}, 0)
	// Both replicas of slice 1 report the same slice; both must agree.
	for replica := 0; replica < 2; replica++ {
		if err := m.Agrees(1, ok); err != nil {
			t.Fatalf("replica %d of slice 1 rejected: %v", replica, err)
		}
	}

	// Mixed-epoch replica set: one replica restarted into the next epoch
	// must be rejected even though its slice assignment is right.
	stale := ok
	stale.Epoch = Epoch + 1
	if err := m.Agrees(1, stale); err == nil {
		t.Error("mixed-epoch replica accepted")
	}

	// Wrong group: a replica that believes it serves a different slice
	// (mis-pinned SHARD file) must be rejected for this index.
	wrongSlice := ok
	wrongSlice.Shard = Assignment{Index: 0, Count: 2}
	if err := m.Agrees(1, wrongSlice); err == nil {
		t.Error("replica claiming the wrong slice accepted")
	}
	// Wrong fleet size: a replica from a differently-sharded deployment.
	wrongCount := ok
	wrongCount.Shard = Assignment{Index: 1, Count: 3}
	if err := m.Agrees(1, wrongCount); err == nil {
		t.Error("replica from a 3-slice fleet accepted into a 2-slice map")
	}
}

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
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped map invalid: %v", err)
	}
	if g := back.Shards[0].Group(); len(g) != 2 || g[1] != "http://a1" {
		t.Fatalf("round-tripped group = %v", g)
	}
	if g := back.Shards[1].Group(); len(g) != 1 || g[0] != "http://b" {
		t.Fatalf("round-tripped single group = %v", g)
	}
}
