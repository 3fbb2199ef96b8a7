// Package ctlog implements the Certificate Transparency substrate: an
// RFC 6962-style append-only log over a Merkle tree, with temporal sharding,
// signed tree heads, an HTTP server exposing the standard read/write
// endpoints, a scraping client, and a multi-log collection with
// precert/final-cert deduplication — the pipeline the paper's 5B-certificate
// corpus was collected through.
package ctlog

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"runtime"
	"sync"

	"stalecert/internal/merkle"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

// Shard restricts a log to certificates whose notAfter falls inside
// [Start, End). A zero Shard accepts everything (an unsharded log).
type Shard struct {
	Start simtime.Day
	End   simtime.Day
}

// Accepts reports whether a certificate expiring on notAfter belongs in this
// shard.
func (s Shard) Accepts(notAfter simtime.Day) bool {
	if s == (Shard{}) {
		return true
	}
	return notAfter >= s.Start && notAfter < s.End
}

// String names the shard like production logs ("2022" shards).
func (s Shard) String() string {
	if s == (Shard{}) {
		return "unsharded"
	}
	return fmt.Sprintf("%s..%s", s.Start, s.End)
}

// Entry is one log entry: a certificate plus its log coordinates.
type Entry struct {
	Index     uint64
	Timestamp simtime.Day // when the entry was incorporated
	Cert      *x509sim.Certificate
}

// LeafData returns the byte string that is Merkle-leaf-hashed for this
// entry, which is also its get-entries leaf_input. As in RFC 6962, the leaf
// covers the timestamp and certificate but not the index, so resubmitting
// the same certificate on the same day deduplicates to the original entry.
func (e Entry) LeafData() []byte {
	b := make([]byte, 0, 4+e.Cert.MarshaledLen())
	b = binary.BigEndian.AppendUint32(b, uint32(int32(e.Timestamp)))
	return e.Cert.AppendMarshal(b)
}

// DecodeLeafInput parses a get-entries leaf_input back into an Entry. The
// index is not part of the leaf (RFC 6962); callers assign it from the
// entry's position in the response.
func DecodeLeafInput(b []byte) (Entry, error) {
	if len(b) < 4 {
		return Entry{}, errors.New("ctlog: leaf input too short")
	}
	cert, err := x509sim.Unmarshal(b[4:])
	if err != nil {
		return Entry{}, fmt.Errorf("ctlog: leaf cert: %w", err)
	}
	return Entry{
		Timestamp: simtime.Day(int32(binary.BigEndian.Uint32(b[0:]))),
		Cert:      cert,
	}, nil
}

// SignedTreeHead is the log's public commitment to its current state.
type SignedTreeHead struct {
	LogName   string
	Size      uint64
	Root      merkle.Hash
	Timestamp simtime.Day
	Signature [32]byte
}

// SCT is a signed certificate timestamp returned from add-chain.
type SCT struct {
	LogName   string
	Index     uint64
	Timestamp simtime.Day
	Signature [32]byte
}

// Errors returned by Log operations.
var (
	ErrWrongShard   = errors.New("ctlog: certificate expiry outside log shard")
	ErrRejected     = errors.New("ctlog: log rejected submission")
	ErrRangeInvalid = errors.New("ctlog: invalid entry range")
	ErrNotFound     = errors.New("ctlog: leaf hash not found")
)

// Log is an append-only certificate log. It is safe for concurrent use.
type Log struct {
	name  string
	shard Shard     // set by New, never changed
	key   []byte    // MAC key standing in for the log's signing key
	macs  sync.Pool // of *macState keyed with key

	mu   sync.RWMutex
	tree merkle.Tree
	// leaves[i] is entry i's leaf input (Entry.LeafData), immutable: the bytes
	// hashed into the tree, served by get-entries, the log's only copy.
	leaves [][]byte
	byLeaf map[merkle.Hash]uint64 // leaf hash -> index (submission dedup)
	clock  simtime.Day            // latest timestamp seen; STHs are stamped with it
}

// New creates a log. The name doubles as key material so two logs with
// different names never produce colliding "signatures".
func New(name string, shard Shard) *Log {
	l := &Log{
		name:   name,
		shard:  shard,
		byLeaf: make(map[merkle.Hash]uint64),
		key:    []byte("ctlog-key:" + name),
	}
	l.macs.New = func() any { return &macState{h: hmac.New(sha256.New, l.key)} }
	return l
}

// Name returns the log's name.
func (l *Log) Name() string { return l.name }

// Shard returns the log's temporal shard.
func (l *Log) Shard() Shard { return l.shard }

// Size returns the current number of entries.
func (l *Log) Size() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.tree.Size()
}

// AddChain submits a certificate at the given day, returning its SCT.
// Resubmitting an identical entry body returns the original SCT (logs
// deduplicate submissions). Certificates outside the shard are rejected.
func (l *Log) AddChain(cert *x509sim.Certificate, now simtime.Day) (SCT, error) {
	p, err := l.prepare(cert, now)
	if err != nil {
		return SCT{}, err
	}
	l.mu.Lock()
	index := l.commit(p)
	l.mu.Unlock()
	return l.signSCT(index, now), nil
}

// pending is a submission prepare has checked and hashed, ready to commit.
type pending struct {
	leaf []byte
	hash merkle.Hash
	ts   simtime.Day
}

// prepare is the part of a submission that needs no lock: the shard check,
// the leaf encoding, the decode check and the leaf hash.
func (l *Log) prepare(cert *x509sim.Certificate, now simtime.Day) (pending, error) {
	if !l.shard.Accepts(cert.NotAfter) {
		return pending{}, fmt.Errorf("%w: notAfter %s not in %s", ErrWrongShard, cert.NotAfter, l.shard)
	}
	leaf := Entry{Timestamp: now, Cert: cert}.LeafData()
	// The leaf is all the log keeps, so it must decode: a certificate built
	// around x509sim.New (no SAN, inverted validity) would otherwise fail
	// every later read of its page.
	if _, err := DecodeLeafInput(leaf); err != nil {
		return pending{}, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	return pending{leaf: leaf, hash: merkle.LeafHash(leaf), ts: now}, nil
}

// commit appends a prepared submission, or finds the entry an identical one
// made (same leaf, so same timestamp), and returns its index. Caller holds
// l.mu.
func (l *Log) commit(p pending) uint64 {
	if p.ts > l.clock {
		l.clock = p.ts
	}
	if idx, ok := l.byLeaf[p.hash]; ok {
		return idx
	}
	index := l.tree.Size()
	l.tree.AppendLeafHash(p.hash)
	l.leaves = append(l.leaves, p.leaf)
	l.byLeaf[p.hash] = index
	return index
}

// Mint makes submission i of a batch: the certificate and its day.
type Mint func(i int) (*x509sim.Certificate, simtime.Day, error)

// AddBatch submits mint(0) … mint(n-1) as AddChain called in that order
// would, minting no SCTs. Minting and prepare run on GOMAXPROCS goroutines,
// each over a contiguous share; commit then runs in index order under one
// lock. The submissions before the first that fails stay committed, as in an
// AddChain loop, and AddBatch returns that failure.
func (l *Log) AddBatch(n int, mint Mint) error {
	subs, errs := make([]pending, n), make([]error, n)
	var wg sync.WaitGroup
	for w, workers := 0, runtime.GOMAXPROCS(0); w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w * n / workers; i < (w+1)*n/workers; i++ {
				cert, day, err := mint(i)
				if err == nil {
					subs[i], err = l.prepare(cert, day)
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, p := range subs {
		if errs[i] != nil {
			return fmt.Errorf("ctlog: submission %d: %w", i, errs[i])
		}
		l.commit(p)
	}
	return nil
}

// Bulk is the synthetic corpus ctlogd -seed-entries serves and the ingest
// benchmarks read. Submission i is serial i+1 (key i+1, issuer 1), valid
// from now-30 to now+60, submitted on now - i%30, and names
// seed<i>.example.com — or, with domains > 1, seed<i>.example-<i%domains>.com,
// so that load has that many e2LDs to skew over.
func Bulk(domains int, now simtime.Day) Mint {
	return func(i int) (*x509sim.Certificate, simtime.Day, error) {
		name := fmt.Sprintf("seed%06d.example.com", i)
		if domains > 1 {
			name = fmt.Sprintf("seed%06d.example-%03d.com", i, i%domains)
		}
		c, err := x509sim.New(x509sim.SerialNumber(i+1), 1, x509sim.KeyID(i+1), []string{name}, now-30, now+60)
		return c, now - simtime.Day(i%30), err
	}
}

func (l *Log) signSCT(index uint64, ts simtime.Day) SCT {
	s := SCT{LogName: l.name, Index: index, Timestamp: ts}
	s.Signature = l.mac('s', index, uint64(int64(ts)), merkle.Hash{})
	return s
}

// STH returns the current signed tree head.
func (l *Log) STH() SignedTreeHead {
	l.mu.RLock()
	defer l.mu.RUnlock()
	root := l.tree.Root()
	h := SignedTreeHead{LogName: l.name, Size: l.tree.Size(), Root: root, Timestamp: l.clock}
	h.Signature = l.mac('h', h.Size, uint64(int64(h.Timestamp)), root)
	return h
}

// VerifySTH checks that an STH was produced by this log.
func (l *Log) VerifySTH(h SignedTreeHead) bool {
	want := l.mac('h', h.Size, uint64(int64(h.Timestamp)), h.Root)
	return h.LogName == l.name && hmac.Equal(want[:], h.Signature[:])
}

// macState is one keyed HMAC and the buffers a signature is made in, kept
// off the stack so the hash interface's calls do not move them to the heap.
type macState struct {
	h   hash.Hash
	msg [1 + 8 + 8 + len(merkle.Hash{})]byte
	sum [sha256.Size]byte
}

// mac signs (kind, a, b, root) with the log's key on a pooled HMAC whose
// keyed state Reset restores, so a signature allocates nothing.
func (l *Log) mac(kind byte, a, b uint64, root merkle.Hash) [32]byte {
	st := l.macs.Get().(*macState)
	st.msg[0] = kind
	binary.BigEndian.PutUint64(st.msg[1:], a)
	binary.BigEndian.PutUint64(st.msg[9:], b)
	copy(st.msg[17:], root[:])
	st.h.Reset()
	st.h.Write(st.msg[:])
	out := [32]byte(st.h.Sum(st.sum[:0]))
	l.macs.Put(st)
	return out
}

// Entries returns entries in [start, end] inclusive, mirroring the RFC 6962
// get-entries contract (the server may return fewer; this implementation
// returns all requested).
func (l *Log) Entries(start, end uint64) ([]Entry, error) {
	leaves, err := l.leafInputs(start, end)
	if err != nil {
		return nil, err
	}
	out := make([]Entry, len(leaves))
	for i, leaf := range leaves {
		if out[i], err = DecodeLeafInput(leaf); err != nil {
			return nil, fmt.Errorf("ctlog: entry %d: %w", start+uint64(i), err) // AddChain checked it decodes
		}
		out[i].Index = start + uint64(i)
	}
	return out, nil
}

// leafInputs returns the leaf inputs of entries [start, end] inclusive,
// read-only: they share the log's memory, which stays valid without the lock
// because leaves are immutable and growth only copies their slice headers.
func (l *Log) leafInputs(start, end uint64) ([][]byte, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if start > end || end >= l.tree.Size() {
		return nil, fmt.Errorf("%w: [%d, %d] of %d", ErrRangeInvalid, start, end, l.tree.Size())
	}
	return l.leaves[start : end+1], nil
}

// InclusionProof returns the audit path for a leaf hash at a tree size. Like
// the other two proof methods it takes the write lock: building a proof
// memoizes subtree roots inside the tree.
func (l *Log) InclusionProof(leaf merkle.Hash, size uint64) (index uint64, proof []merkle.Hash, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	idx, ok := l.byLeaf[leaf]
	if !ok || idx >= size {
		return 0, nil, ErrNotFound
	}
	proof, err = l.tree.InclusionProof(idx, size)
	return idx, proof, err
}

// ConsistencyProof returns the consistency proof between two tree sizes.
func (l *Log) ConsistencyProof(first, second uint64) ([]merkle.Hash, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tree.ConsistencyProof(first, second)
}
