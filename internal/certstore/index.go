package certstore

import (
	"sync"

	"stalecert/internal/core"
	"stalecert/internal/psl"
	"stalecert/internal/x509sim"
)

// shortFP is the first 8 bytes of a fingerprint, the prefix form rendered by
// x509sim.Fingerprint.String and accepted by the query API.
type shortFP uint64

func shortOf(fp x509sim.Fingerprint) shortFP {
	var v shortFP
	for i := 0; i < 8; i++ {
		v = v<<8 | shortFP(fp[i])
	}
	return v
}

// fnv1a hashes a string for shard routing.
func fnv1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// mix spreads integer keys (serials and key IDs are often sequential) before
// shard routing, so consecutive IDs don't all land on adjacent shards of a
// power-of-two shard count.
func mix(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	return v
}

// indexShard is one lock domain. Every map inside a shard is guarded by the
// shard's RWMutex; point reads take a read lock on exactly one shard, so
// parallel readers on different keys rarely contend.
type indexShard struct {
	slot    int // position in shardedIndex.shards
	mu      sync.RWMutex
	byFP    map[x509sim.Fingerprint]*x509sim.Certificate
	byShort map[shortFP]*x509sim.Certificate
	byKey   map[x509sim.DedupKey]*x509sim.Certificate
	byE2LD  map[string][]*x509sim.Certificate
}

func newIndexShard(slot int) *indexShard {
	return &indexShard{
		slot:    slot,
		byFP:    make(map[x509sim.Fingerprint]*x509sim.Certificate),
		byShort: make(map[shortFP]*x509sim.Certificate),
		byKey:   make(map[x509sim.DedupKey]*x509sim.Certificate),
		byE2LD:  make(map[string][]*x509sim.Certificate),
	}
}

// shardedIndex routes each key space independently: a certificate's
// fingerprint, dedup key and e2LDs may live on different shards,
// because every query is a point lookup in exactly one key space.
type shardedIndex struct {
	psl    *psl.List
	shards []*indexShard
}

func newShardedIndex(n int, list *psl.List) *shardedIndex {
	idx := &shardedIndex{psl: list, shards: make([]*indexShard, n)}
	for i := range idx.shards {
		idx.shards[i] = newIndexShard(i)
	}
	return idx
}

func (idx *shardedIndex) n() uint64 { return uint64(len(idx.shards)) }

func (idx *shardedIndex) fpShard(fp x509sim.Fingerprint) *indexShard {
	return idx.shards[uint64(shortOf(fp))%idx.n()]
}

func (idx *shardedIndex) keyShard(k x509sim.DedupKey) *indexShard {
	return idx.shards[mix(uint64(k.Serial)<<16|uint64(k.Issuer))%idx.n()]
}

func (idx *shardedIndex) domainShard(domain string) *indexShard {
	return idx.shards[fnv1a(domain)%idx.n()]
}

// containsFP reports whether the fingerprint is already indexed.
func (idx *shardedIndex) containsFP(fp x509sim.Fingerprint) bool {
	sh := idx.fpShard(fp)
	sh.mu.RLock()
	_, ok := sh.byFP[fp]
	sh.mu.RUnlock()
	return ok
}

// byFingerprint resolves a full fingerprint.
func (idx *shardedIndex) byFingerprint(fp x509sim.Fingerprint) (*x509sim.Certificate, bool) {
	sh := idx.fpShard(fp)
	sh.mu.RLock()
	c, ok := sh.byFP[fp]
	sh.mu.RUnlock()
	return c, ok
}

// byShortFingerprint resolves the 8-byte prefix form (log/API short form).
func (idx *shardedIndex) byShortFingerprint(s shortFP) (*x509sim.Certificate, bool) {
	sh := idx.shards[uint64(s)%idx.n()]
	sh.mu.RLock()
	c, ok := sh.byShort[s]
	sh.mu.RUnlock()
	return c, ok
}

// byKey resolves a CRL (issuer, serial) join key.
func (idx *shardedIndex) byKey(k x509sim.DedupKey) (*x509sim.Certificate, bool) {
	sh := idx.keyShard(k)
	sh.mu.RLock()
	c, ok := sh.byKey[k]
	sh.mu.RUnlock()
	return c, ok
}

// byE2LD returns a defensive copy of the e2LD posting list.
func (idx *shardedIndex) byE2LD(domain string) []*x509sim.Certificate {
	sh := idx.domainShard(domain)
	sh.mu.RLock()
	certs := sh.byE2LD[domain]
	out := make([]*x509sim.Certificate, len(certs))
	copy(out, certs)
	sh.mu.RUnlock()
	if len(out) == 0 {
		return nil
	}
	return out
}

// shardCounts returns the number of certificates routed (by fingerprint) to
// each shard, for the per-shard gauge family.
func (idx *shardedIndex) shardCounts() []int {
	out := make([]int, len(idx.shards))
	for i, sh := range idx.shards {
		sh.mu.RLock()
		out[i] = len(sh.byFP)
		sh.mu.RUnlock()
	}
	return out
}

// staged is one shard's share of a batch, gathered before its lock is taken.
type staged struct {
	fpAt    []int // positions in the batch: byFP and byShort inserts
	keys    []*x509sim.Certificate
	domains []domainCert
}

type domainCert struct {
	e2ld string
	cert *x509sim.Certificate
}

// addBatch indexes a batch of certificates; fps[i] is certs[i]'s fingerprint.
// Callers must have deduplicated the batch against the index already
// (Store.Append does, under its write mutex); addBatch stages the work per
// shard so each shard's lock is taken once per batch regardless of batch size.
func (idx *shardedIndex) addBatch(certs []*x509sim.Certificate, fps []x509sim.Fingerprint) {
	stage := make([]staged, len(idx.shards))
	for i, c := range certs {
		st := &stage[idx.fpShard(fps[i]).slot]
		st.fpAt = append(st.fpAt, i)
		st = &stage[idx.keyShard(c.DedupKey()).slot]
		st.keys = append(st.keys, c)
		for _, e2 := range core.CertE2LDs(idx.psl, c) {
			st = &stage[idx.domainShard(e2).slot]
			st.domains = append(st.domains, domainCert{e2, c})
		}
	}
	for i := range stage {
		st, sh := &stage[i], idx.shards[i]
		sh.mu.Lock()
		for _, at := range st.fpAt {
			sh.byFP[fps[at]] = certs[at]
			sh.byShort[shortOf(fps[at])] = certs[at]
		}
		for _, c := range st.keys {
			sh.byKey[c.DedupKey()] = c
		}
		for _, d := range st.domains {
			sh.byE2LD[d.e2ld] = append(sh.byE2LD[d.e2ld], d.cert)
		}
		sh.mu.Unlock()
	}
}
