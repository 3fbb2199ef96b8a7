// Package certstore is the durable, incrementally-updated certificate index
// behind the serving path. The paper's pipelines are one-shot batch joins
// over an in-memory CT corpus; production monitoring (BygoneSSL-style) needs
// the same index to survive restarts, absorb a live CT feed, and answer
// concurrent queries. certstore provides:
//
//   - an append-only segmented on-disk store reusing the x509sim binary
//     codec, with a crash-safe manifest (sealed segments are checksummed,
//     the active segment's torn tail is truncated on open);
//   - in-memory indexes — by e2LD (via the PSL), by (issuer, serial) CRL
//     join key, and by fingerprint — under one RW lock that a batch is
//     indexed under, so a reader sees each batch whole or not at all;
//   - a published state (the certificate list, sizes and checkpoint) that
//     readers load without a lock while the writer holds Store.mu;
//   - a persisted CT ingest checkpoint, so a restarted tailer resumes from
//     where it stopped instead of re-scraping the log.
//
// A Store implements core.Index, so the batch detectors and the staleapid
// query service run against the same index implementation.
package certstore

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"stalecert/internal/core"
	"stalecert/internal/merkle"
	"stalecert/internal/obs"
	"stalecert/internal/psl"
	"stalecert/internal/shard"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

// Store metric families: segment/cert/byte totals, append and dedup
// counters, and the persisted checkpoint position.
var (
	mSegments    = obs.Default().Gauge("certstore_segments")
	mCerts       = obs.Default().Gauge("certstore_certs")
	mStoreBytes  = obs.Default().Gauge("certstore_bytes")
	mAppends     = obs.Default().Counter("certstore_appends_total")
	mAppended    = obs.Default().Counter("certstore_appended_certs_total")
	mDeduped     = obs.Default().Counter("certstore_dedup_skipped_total")
	mSeals       = obs.Default().Counter("certstore_segment_seals_total")
	mRecovered   = obs.Default().Counter("certstore_torn_tail_truncations_total")
	mCheckpointN = obs.Default().Gauge("certstore_checkpoint_next_index")
)

// DefaultMaxSegmentBytes seals the active segment once it crosses 4 MiB —
// small enough that tests exercise sealing, large enough that a real ingest
// isn't manifest-bound.
const DefaultMaxSegmentBytes = 4 << 20

// Options configures Open.
type Options struct {
	// Dir is the store directory; created if missing. Required.
	Dir string
	// MaxSegmentBytes defaults to DefaultMaxSegmentBytes.
	MaxSegmentBytes int64
	// Slice, when non-nil, is the ring slice the store holds (see
	// Store.Slice); nil is the whole keyspace.
	Slice *shard.Assignment
}

// Checkpoint is the persisted CT ingest resume point: the next entry index
// to fetch and the signed tree head the previous batch was verified against
// (kept so a resuming tailer can demand a consistency proof from the log).
type Checkpoint struct {
	LogName   string      `json:"log_name"`
	NextIndex uint64      `json:"next_index"`
	STHSize   uint64      `json:"sth_size"`
	STHRoot   string      `json:"sth_root"` // hex
	Timestamp simtime.Day `json:"timestamp"`
}

// Root decodes the checkpoint's tree root.
func (cp Checkpoint) Root() (merkle.Hash, error) {
	var h merkle.Hash
	raw, err := hex.DecodeString(cp.STHRoot)
	if err != nil || len(raw) != len(h) {
		return h, fmt.Errorf("certstore: bad checkpoint root %q", cp.STHRoot)
	}
	copy(h[:], raw)
	return h, nil
}

// Store is an open certificate store. All methods are safe for concurrent
// use. Store.mu serialises the writers (commit, SetCheckpoint, Close), and
// no read takes it: lookups take only the index's read lock, and Len,
// Checkpoint, SegmentCount and Certs load the state the last write
// published, so no reader waits out a batch's write and fsync.
type Store struct {
	dir    string
	psl    *psl.List
	maxSeg int64
	idx    *index
	ring   *shard.Ring       // the slice's ring, nil when unsharded; set by Open
	slice  *shard.Assignment // set by Open, never changed
	pub    atomic.Pointer[state]

	mu       sync.Mutex // serialises writers; guards everything below
	man      *manifest
	active   *os.File
	activeSz int64
	certs    []*x509sim.Certificate // insertion order; only appended to
	closed   bool
}

// state is what the store's readers see: the certificates, segment count,
// bytes and checkpoint as of the last write. It is never changed once
// published.
type state struct {
	certs []*x509sim.Certificate // capped at its length, so no append writes inside it
	segs  int
	bytes int64
	cp    *Checkpoint
}

// syncFile is the fsync commit makes before it indexes a batch; a test holds
// a commit inside it.
var syncFile = (*os.File).Sync

// Slice returns the ring slice the store holds, nil for the whole keyspace.
func (s *Store) Slice() *shard.Assignment {
	if s.slice == nil {
		return nil
	}
	a := *s.slice
	return &a
}

// shardFile is the SHARD file beside MANIFEST and CHECKPOINT: the ring slice
// a sharded store's certificates are and the ring it was cut from. A store
// ingested as one slice must never be re-tailed as another — the data on disk
// would be the wrong subset — so Open writes it once and checks it on every
// later open.
type shardFile struct {
	Epoch  uint64 `json:"epoch"`
	Index  int    `json:"index"`
	Count  int    `json:"count"`
	VNodes int    `json:"vnodes"`
	Hash   string `json:"hash"`
}

const shardFileName = "SHARD"

// checkSlice compares the slice a store is opened as with the one its SHARD
// file pins, and reports whether the file is still to be written. A pinned
// store refuses to open unsharded or as another slice, and a pin from a ring
// this build does not cut (another shard.Epoch, vnodes or hash) is refused
// outright: its data is the wrong subset under every slice.
func checkSlice(dir string, want *shard.Assignment) (write bool, err error) {
	raw, err := os.ReadFile(filepath.Join(dir, shardFileName))
	if errors.Is(err, os.ErrNotExist) {
		return want != nil, nil
	} else if err != nil {
		return false, err
	}
	var f shardFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return false, fmt.Errorf("certstore: corrupt shard assignment: %v", err)
	}
	pinned := shard.Assignment{Index: f.Index, Count: f.Count}
	switch {
	case f.Epoch != shard.Epoch || f.VNodes != shard.DefaultVNodes || f.Hash != shard.HashName:
		return false, fmt.Errorf("certstore: store %s is pinned to shard %s of epoch %d (%d vnodes, %s), not this build's epoch %d (%d vnodes, %s); re-ingest it into a fresh store",
			dir, pinned, f.Epoch, f.VNodes, f.Hash, shard.Epoch, shard.DefaultVNodes, shard.HashName)
	case want == nil:
		return false, fmt.Errorf("certstore: store %s is pinned to shard %s; refusing to open it unsharded (pass the matching -shard flag)", dir, pinned)
	case *want != pinned:
		return false, fmt.Errorf("certstore: store %s is pinned to shard %s; refusing to open it as shard %s", dir, pinned, want)
	}
	return false, nil
}

// pin writes the SHARD file for a, refusing a store that already holds
// certificates: they were ingested unsharded, not as the slice.
func (s *Store) pin(a shard.Assignment) error {
	if len(s.certs) > 0 {
		return fmt.Errorf("certstore: store %s holds %d certificates ingested unsharded; cannot retroactively pin it to shard %s",
			s.dir, len(s.certs), a)
	}
	raw, err := json.MarshalIndent(shardFile{Epoch: shard.Epoch, Index: a.Index, Count: a.Count,
		VNodes: shard.DefaultVNodes, Hash: shard.HashName}, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(s.dir, shardFileName), append(raw, '\n'))
}

// ErrClosed is returned by writes on a closed store.
var ErrClosed = errors.New("certstore: store is closed")

// Open opens (or creates) the store at opts.Dir, verifies sealed segments
// against the manifest, truncates any torn tail off the active segment,
// rebuilds the index, and pins or checks opts.Slice (checkSlice).
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("certstore: Options.Dir is required")
	}
	if opts.Slice != nil {
		if err := opts.Slice.Validate(); err != nil {
			return nil, err
		}
	}
	write, err := checkSlice(opts.Dir, opts.Slice)
	if err != nil {
		return nil, err
	}
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = DefaultMaxSegmentBytes
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:    opts.Dir,
		psl:    psl.Default(),
		maxSeg: opts.MaxSegmentBytes,
		idx:    newIndex(0),
	}

	man, err := loadManifest(opts.Dir)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Fresh store.
		man = &manifest{Version: 1, Active: segmentFileName(0)}
		f, sz, err := createSegment(filepath.Join(opts.Dir, man.Active))
		if err != nil {
			return nil, err
		}
		if err := man.store(opts.Dir); err != nil {
			f.Close()
			return nil, err
		}
		s.man, s.active, s.activeSz = man, f, sz
	case err != nil:
		return nil, err
	default:
		// Recover: sealed segments must verify bit-for-bit; the active
		// segment may have a torn tail from a crash mid-append.
		var loaded []*x509sim.Certificate
		for _, meta := range man.Sealed {
			certs, err := verifySealed(opts.Dir, meta)
			if err != nil {
				return nil, err
			}
			loaded = append(loaded, certs...)
		}
		activePath := filepath.Join(opts.Dir, man.Active)
		scan, err := readSegment(activePath)
		if errors.Is(err, os.ErrNotExist) {
			// Crash between manifest write and segment creation: recreate.
			f, sz, cerr := createSegment(activePath)
			if cerr != nil {
				return nil, cerr
			}
			s.active, s.activeSz = f, sz
		} else if err != nil {
			return nil, err
		} else {
			if scan.torn {
				if err := os.Truncate(activePath, scan.goodBytes); err != nil {
					return nil, err
				}
				mRecovered.Inc()
			}
			loaded = append(loaded, scan.certs...)
			f, err := os.OpenFile(activePath, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, err
			}
			s.active, s.activeSz = f, scan.goodBytes
		}
		s.man = man
		// Re-index with fingerprint dedup across segments (replayed batches
		// may straddle a seal).
		s.idx = newIndex(len(loaded))
		fresh := s.idx.freshOf(s.prepare(loaded))
		s.idx.addBatch(fresh)
		s.certs = make([]*x509sim.Certificate, len(fresh))
		for i, p := range fresh {
			s.certs[i] = p.cert
		}
	}

	var cp *Checkpoint
	if raw, err := os.ReadFile(filepath.Join(opts.Dir, checkpointName)); err == nil {
		cp = new(Checkpoint)
		if err := json.Unmarshal(raw, cp); err != nil {
			return nil, fmt.Errorf("certstore: corrupt checkpoint: %v", err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	if write {
		if err := s.pin(*opts.Slice); err != nil {
			s.active.Close()
			return nil, err
		}
	}
	if opts.Slice != nil {
		a := *opts.Slice
		s.slice, s.ring = &a, shard.MustRing(a.Count, shard.DefaultVNodes)
	}
	s.publish(cp)
	return s, nil
}

// prepared is a certificate with what storing it needs, computed once and
// outside the store's lock: its fingerprint, which decides freshness and keys
// the index, and its e2LDs, which key the index and decide a slice's keep.
type prepared struct {
	cert  *x509sim.Certificate
	fp    x509sim.Fingerprint
	e2lds []string
}

func prepareCert(list *psl.List, c *x509sim.Certificate) prepared {
	return prepared{cert: c, fp: c.Fingerprint(), e2lds: core.CertE2LDs(list, c)}
}

// prepare is prepareCert of every certificate.
func (s *Store) prepare(certs []*x509sim.Certificate) []prepared {
	batch := make([]prepared, len(certs))
	for i, c := range certs {
		batch[i] = prepareCert(s.psl, c)
	}
	return batch
}

// keeps reports whether the store's slice owns p (shard.Keeps); an unsharded
// store keeps every certificate.
func (s *Store) keeps(p prepared) bool {
	return s.ring == nil || shard.Keeps(s.ring, s.slice.Index, p.e2lds, p.fp)
}

// publish makes the writer's state, with checkpoint cp, the one readers
// load, and sets the gauges from it. Callers hold s.mu or own the store
// (Open).
func (s *Store) publish(cp *Checkpoint) {
	st := &state{certs: s.certs[:len(s.certs):len(s.certs)], segs: len(s.man.Sealed) + 1, bytes: s.activeSz, cp: cp}
	for _, m := range s.man.Sealed {
		st.bytes += m.Bytes
	}
	s.pub.Store(st)
	mSegments.Set(float64(st.segs))
	mStoreBytes.Set(float64(st.bytes))
	mCerts.Set(float64(len(st.certs)))
	if cp != nil {
		mCheckpointN.Set(float64(cp.NextIndex))
	}
}

// Append durably stores and indexes every certificate not already present
// (by fingerprint, so a precert and its final cert deduplicate, matching the
// paper's criterion). It returns the number actually added. The batch is a
// single file append and is indexed under one write lock, so no lookup sees
// part of it.
func (s *Store) Append(certs []*x509sim.Certificate) (int, error) {
	stored, err := s.commit(s.prepare(certs))
	return len(stored), err
}

// commit is Append of a prepared batch: under the write mutex it dedups,
// writes, fsyncs, indexes and publishes. It returns the certificates it
// stored, in order; the slice is capped, so a caller may append to it.
func (s *Store) commit(batch []prepared) ([]*x509sim.Certificate, error) {
	if len(batch) == 0 {
		return nil, nil
	}
	mAppends.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	fresh := s.idx.freshOf(batch)
	mDeduped.Add(uint64(len(batch) - len(fresh)))
	if len(fresh) == 0 {
		return nil, nil
	}
	size := 0
	for _, p := range fresh {
		size += 4 + p.cert.MarshaledLen()
	}
	buf := make([]byte, 0, size)
	for _, p := range fresh {
		buf = appendRecord(buf, p.cert)
	}
	if _, err := s.active.Write(buf); err != nil {
		return nil, fmt.Errorf("certstore: append: %w", err)
	}
	if err := syncFile(s.active); err != nil {
		return nil, fmt.Errorf("certstore: fsync: %w", err)
	}
	s.activeSz += int64(len(buf))
	from := len(s.certs)
	for _, p := range fresh {
		s.certs = append(s.certs, p.cert)
	}
	// Index before releasing the write mutex so a concurrent Append's dedup
	// check sees this batch.
	s.idx.addBatch(fresh)
	var sealErr error
	if s.activeSz >= s.maxSeg {
		sealErr = s.sealLocked()
	}
	s.publish(s.pub.Load().cp)
	mAppended.Add(uint64(len(fresh)))
	return s.certs[from:len(s.certs):len(s.certs)], sealErr
}

// sealLocked closes the active segment, records it (with checksum) in the
// manifest, and opens a fresh active segment. Caller holds s.mu.
func (s *Store) sealLocked() error {
	name := s.man.Active
	path := filepath.Join(s.dir, name)
	if err := s.active.Close(); err != nil {
		return err
	}
	scan, err := readSegment(path)
	if err != nil {
		return err
	}
	if scan.torn {
		return fmt.Errorf("%w: %s: torn tail while sealing", ErrCorruptSegment, name)
	}
	next := s.man.nextSegment()
	f, sz, err := createSegment(filepath.Join(s.dir, next))
	if err != nil {
		return err
	}
	s.man.Sealed = append(s.man.Sealed, segmentMeta{
		Name:   name,
		Bytes:  scan.goodBytes,
		Count:  len(scan.certs),
		SHA256: hex.EncodeToString(scan.sum[:]),
	})
	s.man.Active = next
	if err := s.man.store(s.dir); err != nil {
		f.Close()
		return err
	}
	s.active, s.activeSz = f, sz
	mSeals.Inc()
	return nil
}

// SetCheckpoint atomically persists the CT ingest resume point. A checkpoint
// equal to the stored one is not written again: an idle ingest round leaves
// the file alone.
func (s *Store) SetCheckpoint(cp Checkpoint) error {
	raw, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if old := s.pub.Load().cp; old != nil && *old == cp {
		return nil
	}
	if err := writeFileAtomic(filepath.Join(s.dir, checkpointName), append(raw, '\n')); err != nil {
		return err
	}
	s.publish(&cp)
	return nil
}

// Checkpoint returns the persisted resume point, if any.
func (s *Store) Checkpoint() (Checkpoint, bool) {
	if cp := s.pub.Load().cp; cp != nil {
		return *cp, true
	}
	return Checkpoint{}, false
}

// Close flushes and closes the active segment. The store rejects writes
// afterwards; reads keep working off the in-memory index.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.active.Sync(); err != nil {
		s.active.Close()
		return err
	}
	return s.active.Close()
}

// SegmentCount returns sealed segments + the active one.
func (s *Store) SegmentCount() int { return s.pub.Load().segs }

// Len returns the number of stored (deduplicated) certificates.
func (s *Store) Len() int { return len(s.pub.Load().certs) }

// Certs returns a snapshot copy of the stored certificates in insertion
// order. Callers may keep or sort it freely.
func (s *Store) Certs() []*x509sim.Certificate {
	return append([]*x509sim.Certificate{}, s.pub.Load().certs...)
}

// ByKey resolves a CRL (issuer, serial) join key.
func (s *Store) ByKey(k x509sim.DedupKey) (*x509sim.Certificate, bool) {
	s.idx.mu.RLock()
	defer s.idx.mu.RUnlock()
	c, ok := s.idx.byKey[k]
	return c, ok
}

// ByE2LD returns every certificate naming an FQDN under the e2LD. The slice
// is a defensive copy.
func (s *Store) ByE2LD(domain string) []*x509sim.Certificate {
	s.idx.mu.RLock()
	defer s.idx.mu.RUnlock()
	certs := s.idx.byE2LD[domain]
	if len(certs) == 0 {
		return nil
	}
	out := make([]*x509sim.Certificate, len(certs))
	copy(out, certs)
	return out
}

// ByFingerprint resolves a full 32-byte fingerprint.
func (s *Store) ByFingerprint(fp x509sim.Fingerprint) (*x509sim.Certificate, bool) {
	s.idx.mu.RLock()
	defer s.idx.mu.RUnlock()
	c, ok := s.idx.byFP[fp]
	return c, ok
}

// ByShortFingerprint resolves the 8-byte prefix form that
// x509sim.Fingerprint.String renders (16 hex digits).
func (s *Store) ByShortFingerprint(prefix [8]byte) (*x509sim.Certificate, bool) {
	var v shortFP
	for i := 0; i < 8; i++ {
		v = v<<8 | shortFP(prefix[i])
	}
	s.idx.mu.RLock()
	defer s.idx.mu.RUnlock()
	c, ok := s.idx.byShort[v]
	return c, ok
}

// PSL returns the public suffix list the e2LD index was built with.
func (s *Store) PSL() *psl.List { return s.psl }

// Domains returns the indexed e2LDs the store owns, sorted: every one when
// unsharded, and on a pinned slice those the ring gives the slice. A
// certificate naming several e2LDs is kept by each of their owners, so a
// slice indexes e2LDs that another slice owns and lists. Diagnostic; holds
// the index's read lock while it walks the e2LD map.
func (s *Store) Domains() []string {
	var out []string
	s.idx.mu.RLock()
	for d := range s.idx.byE2LD {
		if s.ring == nil || s.ring.Lookup(shard.KeyForDomain(d)) == s.slice.Index {
			out = append(out, d)
		}
	}
	s.idx.mu.RUnlock()
	sort.Strings(out)
	return out
}

var _ core.Index = (*Store)(nil)
