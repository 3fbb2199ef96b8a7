// Package shard partitions the certstore keyspace across a fleet of
// staleapid replicas with a consistent-hash ring, and renders the views of
// it that the gateway and each replica serve at /v1/shardmap.
//
// The partition key is the registrable domain (e2LD): the paper's staleness
// verdict is a per-domain computation over the domain's *whole* certificate
// history, so a domain's certificates must co-locate on one shard for the
// verdict to stay a single lookup. A certificate's placement keys (keys.go)
// are its SANs' e2LDs except the provider marker's, which names no domain
// anyone operates; it is kept by every shard owning one, so each domain's
// history stays complete, and falls back to its fingerprint when no key
// remains. Point lookups by bare fingerprint cannot recover the e2LD, so the
// query gateway scatter-gathers those — see internal/stalegw.
//
// Hashing is FNV-1a finished with a splitmix64 avalanche (the same finalizer
// loadgen's PRNG and the trace tail-sampler use), so placement is a pure
// function of (key, shard count, vnodes): every process in the fleet —
// ingesters, gateway, tests — derives the identical ring with no
// coordination. Virtual nodes smooth the per-shard load imbalance to
// O(1/sqrt(vnodes)), and growing the fleet N→N+1 moves only ~1/(N+1) of the
// keys (the consistent-hashing property the resharding story relies on).
//
// Everything is stdlib-only.
package shard

import (
	"fmt"
	"sort"
	"strings"
)

// HashName identifies the ring's hash construction in /v1/shardmap views;
// the gateway refuses a replica whose view names another hash.
const HashName = "fnv1a-splitmix64"

// DefaultVNodes is the virtual-node count per shard. 128 keeps the max/mean
// shard load within ~±12% at 10k keys while the ring stays a few KiB.
const DefaultVNodes = 128

// Epoch numbers the placement this build computes. Every replica and gateway
// of one build reports it, and a store's SHARD file pins it. A change that
// moves any certificate to another slice (the hash, the vnodes, the
// placement keys) bumps it in the same diff: stores pinned under the old
// epoch then refuse to open and are rebuilt by re-ingesting the log. Epoch 2
// dropped the provider marker from the placement keys.
const Epoch = 2

// maxRingPoints bounds shards × vnodes (16 MiB of points): the slice count
// comes from a flag (stalegw's -shards, staleapid's -shard i/N), and a
// mistyped one must be refused, not allocated.
const maxRingPoints = 1 << 20

// checkRingSize rejects a ring shape NewRing would not build.
func checkRingSize(n, v int) error {
	if n <= 0 {
		return fmt.Errorf("shard: ring needs at least 1 shard, got %d", n)
	}
	if v > maxRingPoints/n {
		return fmt.Errorf("shard: %d shards x %d vnodes exceeds %d ring points", n, v, maxRingPoints)
	}
	return nil
}

// hash64 maps the key prefix+s to a ring position, taking it in two parts
// so a caller need not build it: FNV-1a for speed, finished with a
// splitmix64 avalanche because FNV's high bits mix poorly for short, similar
// keys (exactly the shape of e2LDs and hex prefixes).
func hash64(prefix, s string) uint64 {
	x := uint64(14695981039346656037)
	for _, part := range [2]string{prefix, s} {
		for i := 0; i < len(part); i++ {
			x ^= uint64(part[i])
			x *= 1099511628211
		}
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// point is one virtual node: a ring position owned by a shard.
type point struct {
	pos   uint64
	owner int
}

// Ring is an immutable consistent-hash ring over shards 0..N-1. Safe for
// concurrent use.
type Ring struct {
	points []point // sorted by pos
}

// NewRing builds the ring for n shards with v virtual nodes each (v <= 0
// uses DefaultVNodes). The construction is deterministic: two processes with
// the same (n, v) derive identical rings.
func NewRing(n, v int) (*Ring, error) {
	if v <= 0 {
		v = DefaultVNodes
	}
	if err := checkRingSize(n, v); err != nil {
		return nil, err
	}
	r := &Ring{points: make([]point, 0, n*v)}
	for i := 0; i < n; i++ {
		for j := 0; j < v; j++ {
			r.points = append(r.points, point{pos: hash64("", fmt.Sprintf("vnode/%d/%d", i, j)), owner: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].pos < r.points[b].pos })
	return r, nil
}

// MustRing is NewRing for static configuration; it panics on a bad shape.
func MustRing(n, v int) *Ring {
	r, err := NewRing(n, v)
	if err != nil {
		panic(err)
	}
	return r
}

// Lookup returns the shard owning key: the owner of the first virtual node
// at or clockwise of the key's ring position.
func (r *Ring) Lookup(key string) int { return r.owner(hash64("", key)) }

// owner returns the shard of the first virtual node at or clockwise of pos.
func (r *Ring) owner(pos uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	if i == len(r.points) {
		i = 0 // wrap past the highest point to the ring's start
	}
	return r.points[i].owner
}

// KeyForDomain is the ring key for a registrable domain. Lowercased so the
// routing decision matches the case-folded index key.
func KeyForDomain(e2ld string) string { return domainKeyPrefix + domainKeyBody(e2ld) }

const domainKeyPrefix = "d/"

func domainKeyBody(e2ld string) string { return strings.ToLower(strings.TrimSuffix(e2ld, ".")) }

// KeyForFingerprint is the ring key for a certificate fingerprint, given in
// either the 64-hex full form or the 16-hex short-prefix form. Both forms of
// one certificate produce the same key: the fingerprint is normalized to its
// canonical 16-hex prefix (the short form is a prefix of the full form), so
// routing — like caching — never splits one certificate across two
// identities.
func KeyForFingerprint(hexFP string) string {
	fp := strings.ToLower(hexFP)
	if len(fp) > 16 {
		fp = fp[:16]
	}
	return "f/" + fp
}
