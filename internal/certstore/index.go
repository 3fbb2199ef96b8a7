package certstore

import (
	"sync"

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

// index is the store's four lookups under one lock. addBatch write-locks it
// once per batch, so a reader sees a batch whole or not at all: a certificate
// found by its e2LD is also found by its (issuer, serial) key and its
// fingerprints. The lock is not Store.mu, which commit holds across the
// segment write and fsync, so no lookup waits on the disk.
type index struct {
	mu      sync.RWMutex
	byFP    map[x509sim.Fingerprint]*x509sim.Certificate
	byShort map[shortFP]*x509sim.Certificate
	byKey   map[x509sim.DedupKey]*x509sim.Certificate
	byE2LD  map[string][]*x509sim.Certificate
}

// newIndex sizes the three per-certificate maps for n certificates. Open
// passes the count it read and verified off disk; nothing else sizes them,
// least of all a tree head a catch-up has not checked yet.
func newIndex(n int) *index {
	return &index{
		byFP:    make(map[x509sim.Fingerprint]*x509sim.Certificate, n),
		byShort: make(map[shortFP]*x509sim.Certificate, n),
		byKey:   make(map[x509sim.DedupKey]*x509sim.Certificate, n),
		byE2LD:  make(map[string][]*x509sim.Certificate),
	}
}

// freshOf returns the certificates of batch that are neither indexed nor
// repeated earlier in batch, in order, compacted into batch's own array.
// Callers hold Store.mu or own the store (Open), so nothing is indexed
// between this and their addBatch.
func (idx *index) freshOf(batch []prepared) []prepared {
	fresh := batch[:0]
	seen := make(map[x509sim.Fingerprint]bool, len(batch))
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	for _, p := range batch {
		if _, ok := idx.byFP[p.fp]; ok || seen[p.fp] {
			continue
		}
		seen[p.fp] = true
		fresh = append(fresh, p)
	}
	return fresh
}

// addBatch indexes a batch freshOf returned, under one write lock.
func (idx *index) addBatch(batch []prepared) {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	for _, p := range batch {
		idx.byFP[p.fp] = p.cert
		idx.byShort[shortOf(p.fp)] = p.cert
		idx.byKey[p.cert.DedupKey()] = p.cert
		for _, e2 := range p.e2lds {
			idx.byE2LD[e2] = append(idx.byE2LD[e2], p.cert)
		}
	}
}
