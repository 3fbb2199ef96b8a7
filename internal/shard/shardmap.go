package shard

import (
	"fmt"
	"strconv"
	"strings"
)

// MapVersion identifies the /v1/shardmap layout; bump on incompatible change
// so a gateway refuses replicas of another layout instead of mis-routing.
const MapVersion = 1

// Assignment is one replica's slice of the ring: shard Index of Count.
type Assignment struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// String renders the canonical "i/N" form (the -shard flag syntax).
func (a Assignment) String() string { return fmt.Sprintf("%d/%d", a.Index, a.Count) }

// Validate checks the assignment names a real slice of a ring NewRing would
// build with DefaultVNodes.
func (a Assignment) Validate() error {
	if a.Count <= 0 {
		return fmt.Errorf("shard: assignment %s: count must be >= 1", a)
	}
	if a.Index < 0 || a.Index >= a.Count {
		return fmt.Errorf("shard: assignment %s: index out of range [0,%d)", a, a.Count)
	}
	return checkRingSize(a.Count, DefaultVNodes)
}

// ParseAssignment parses the -shard flag's "i/N" form.
func ParseAssignment(s string) (Assignment, error) {
	is, ns, ok := strings.Cut(s, "/")
	if !ok {
		return Assignment{}, fmt.Errorf("shard: bad assignment %q (want i/N, e.g. 0/3)", s)
	}
	i, err1 := strconv.Atoi(strings.TrimSpace(is))
	n, err2 := strconv.Atoi(strings.TrimSpace(ns))
	if err1 != nil || err2 != nil {
		return Assignment{}, fmt.Errorf("shard: bad assignment %q (want i/N, e.g. 0/3)", s)
	}
	a := Assignment{Index: i, Count: n}
	return a, a.Validate()
}

// Member is one slice's entry in the gateway's /v1/shardmap. Addr is the
// slice's first replica; Replicas, when the slice has more than one, lists
// them all.
type Member struct {
	Index    int      `json:"index"`
	Addr     string   `json:"addr,omitempty"`
	Replicas []string `json:"replicas,omitempty"`
}

// Map is the fleet view the gateway serves at /v1/shardmap: this build's
// ring parameters and, per slice, its replicas. It is output only; the
// gateway takes its topology from the -shards text and checks each
// replica's Self against the build's constants.
type Map struct {
	Version int      `json:"version"`
	Epoch   uint64   `json:"epoch"`
	Hash    string   `json:"hash"`
	VNodes  int      `json:"vnodes"`
	Shards  []Member `json:"shards"`
}

// NewMap renders this build's map (Epoch, HashName, DefaultVNodes) where each
// slice is served by a replica group of one or more base URLs, in ring-index
// order. A single-address group uses the addr-only form.
func NewMap(groups [][]string) Map {
	m := Map{Version: MapVersion, Epoch: Epoch, Hash: HashName, VNodes: DefaultVNodes}
	for i, g := range groups {
		mem := Member{Index: i}
		if len(g) > 0 {
			mem.Addr = g[0]
		}
		if len(g) > 1 {
			mem.Replicas = append([]string(nil), g...)
		}
		m.Shards = append(m.Shards, mem)
	}
	return m
}

// Self is the shard-map view one replica serves at /v1/shardmap: the ring
// parameters it was built with, its own slice, and its live certificate
// count (so an operator — or a CI smoke — can check that the fleet's slices
// sum to the log without overlap).
type Self struct {
	Version int        `json:"version"`
	Epoch   uint64     `json:"epoch"`
	Hash    string     `json:"hash"`
	VNodes  int        `json:"vnodes"`
	Shard   Assignment `json:"shard"`
	Certs   int        `json:"certs"`
}

// NewSelf is the view of a replica holding slice a and certs certificates;
// a nil slice is the whole keyspace, slice 0/1.
func NewSelf(a *Assignment, certs int) Self {
	s := Self{Version: MapVersion, Epoch: Epoch, Hash: HashName, VNodes: DefaultVNodes,
		Shard: Assignment{Index: 0, Count: 1}, Certs: certs}
	if a != nil {
		s.Shard = *a
	}
	return s
}

// Agrees reports whether a replica's self-report matches this build's ring
// and places the replica at slice index of count: same view version, epoch,
// hash and vnodes, and exactly that slice of a same-sized fleet.
func (s Self) Agrees(index, count int) error {
	switch {
	case s.Version != MapVersion:
		return fmt.Errorf("shard %d: map version %d (this build has %d)", index, s.Version, MapVersion)
	case s.Epoch != Epoch:
		return fmt.Errorf("shard %d: map epoch %d (this build has %d)", index, s.Epoch, Epoch)
	case s.Hash != HashName:
		return fmt.Errorf("shard %d: ring hash %q (this build has %q)", index, s.Hash, HashName)
	case s.VNodes != DefaultVNodes:
		return fmt.Errorf("shard %d: %d vnodes (this build has %d)", index, s.VNodes, DefaultVNodes)
	case s.Shard.Index != index || s.Shard.Count != count:
		return fmt.Errorf("shard %d: replica claims slice %s (gateway expects %d/%d)",
			index, s.Shard, index, count)
	}
	return nil
}
