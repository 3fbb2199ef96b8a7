package shard

import (
	"fmt"
	"strconv"
	"strings"
)

// MapVersion identifies the shard-map document layout; bump on incompatible
// change so mixed fleets refuse to interoperate instead of mis-routing.
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

// Member is one shard's entry in the fleet map. Addr is the shard's API base
// URL; replicas serving their own /v1/shardmap omit it. Replicas, when
// present, lists every base URL serving this slice (Addr is then the first
// replica, kept for wire compatibility with single-replica maps).
type Member struct {
	Index    int      `json:"index"`
	Addr     string   `json:"addr,omitempty"`
	Replicas []string `json:"replicas,omitempty"`
}

// Group returns the slice's replica addresses: Replicas when populated, else
// the single Addr. Callers route to any member of the group; all replicas of
// a slice pin identical SHARD files and tail the same log.
func (m Member) Group() []string {
	if len(m.Replicas) > 0 {
		return m.Replicas
	}
	if m.Addr != "" {
		return []string{m.Addr}
	}
	return nil
}

// Map is the versioned, epoch-numbered shard-map document. The gateway
// serves its configured map at /v1/shardmap; each staleapid serves a Self
// view of its own slice. Two processes interoperate only when version,
// epoch, hash and vnodes all agree — the gateway validates every shard's
// self-report against its map and refuses to route to a replica holding a
// different ring.
type Map struct {
	Version int      `json:"version"`
	Epoch   uint64   `json:"epoch"`
	Hash    string   `json:"hash"`
	VNodes  int      `json:"vnodes"`
	Shards  []Member `json:"shards"`
}

// NewMap builds this build's map (Epoch, HashName, DefaultVNodes) where each
// slice is served by a replica group of one or more base URLs, in ring-index
// order. A single-address group uses the addr-only wire form.
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

// Validate checks the document is a coherent ring description: known version
// and hash, positive vnodes, and members covering exactly indexes 0..N-1.
func (m Map) Validate() error {
	if m.Version != MapVersion {
		return fmt.Errorf("shard: map version %d (want %d)", m.Version, MapVersion)
	}
	if m.Hash != HashName {
		return fmt.Errorf("shard: map hash %q (want %q)", m.Hash, HashName)
	}
	if m.VNodes <= 0 {
		return fmt.Errorf("shard: map vnodes %d (want > 0)", m.VNodes)
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("shard: map has no shards")
	}
	if err := checkRingSize(len(m.Shards), m.VNodes); err != nil {
		return err
	}
	seen := make([]bool, len(m.Shards))
	addrs := make(map[string]int, len(m.Shards))
	for _, sh := range m.Shards {
		if sh.Index < 0 || sh.Index >= len(m.Shards) || seen[sh.Index] {
			return fmt.Errorf("shard: map indexes are not exactly 0..%d", len(m.Shards)-1)
		}
		seen[sh.Index] = true
		group := sh.Group()
		if len(group) == 0 {
			return fmt.Errorf("shard: slice %d has an empty replica group", sh.Index)
		}
		if len(sh.Replicas) > 0 && sh.Addr != "" && sh.Addr != sh.Replicas[0] {
			return fmt.Errorf("shard: slice %d addr %q is not its first replica %q",
				sh.Index, sh.Addr, sh.Replicas[0])
		}
		for _, a := range group {
			if a == "" {
				return fmt.Errorf("shard: slice %d has an empty replica address", sh.Index)
			}
			if prev, dup := addrs[a]; dup {
				if prev == sh.Index {
					return fmt.Errorf("shard: slice %d lists replica %q twice", sh.Index, a)
				}
				return fmt.Errorf("shard: replica %q serves both slice %d and slice %d", a, prev, sh.Index)
			}
			addrs[a] = sh.Index
		}
	}
	return nil
}

// Ring derives the map's consistent-hash ring.
func (m Map) Ring() (*Ring, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return NewRing(len(m.Shards), m.VNodes)
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

// Agrees reports whether a replica's self-report is consistent with this map
// placing it at index: same document version, epoch, hash and vnodes, and
// the replica believes it owns exactly that slice of a same-sized fleet.
func (m Map) Agrees(index int, s Self) error {
	switch {
	case s.Version != m.Version:
		return fmt.Errorf("shard %d: map version %d (gateway has %d)", index, s.Version, m.Version)
	case s.Epoch != m.Epoch:
		return fmt.Errorf("shard %d: map epoch %d (gateway has %d)", index, s.Epoch, m.Epoch)
	case s.Hash != m.Hash:
		return fmt.Errorf("shard %d: ring hash %q (gateway has %q)", index, s.Hash, m.Hash)
	case s.VNodes != m.VNodes:
		return fmt.Errorf("shard %d: %d vnodes (gateway has %d)", index, s.VNodes, m.VNodes)
	case s.Shard.Index != index || s.Shard.Count != len(m.Shards):
		return fmt.Errorf("shard %d: replica claims slice %s (gateway expects %d/%d)",
			index, s.Shard, index, len(m.Shards))
	}
	return nil
}
