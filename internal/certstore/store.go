// Package certstore is the durable, incrementally-updated certificate index
// behind the serving path. The paper's pipelines are one-shot batch joins
// over an in-memory CT corpus; production monitoring (BygoneSSL-style) needs
// the same index to survive restarts, absorb a live CT feed, and answer
// concurrent queries. certstore provides:
//
//   - an append-only segmented on-disk store reusing the x509sim binary
//     codec, with a crash-safe manifest (sealed segments are checksummed,
//     the active segment's torn tail is truncated on open);
//   - N-way sharded in-memory indexes — by e2LD (via the PSL), by (issuer,
//     serial) CRL join key, and by fingerprint — each shard independently
//     RW-locked so parallel readers scale;
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
	"runtime"
	"sort"
	"sync"

	"stalecert/internal/core"
	"stalecert/internal/merkle"
	"stalecert/internal/obs"
	"stalecert/internal/psl"
	"stalecert/internal/shard"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

// Store metric families: segment/cert/byte totals, per-shard index sizes,
// append and dedup counters, and the persisted checkpoint position.
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

func shardGauge(i int) *obs.Gauge {
	return obs.Default().Gauge("certstore_index_shard_certs", "shard", fmt.Sprint(i))
}

// DefaultMaxSegmentBytes seals the active segment once it crosses 4 MiB —
// small enough that tests exercise sealing, large enough that a real ingest
// isn't manifest-bound.
const DefaultMaxSegmentBytes = 4 << 20

// Options configures Open.
type Options struct {
	// Dir is the store directory; created if missing. Required.
	Dir string
	// PSL defaults to psl.Default().
	PSL *psl.List
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
// use; reads only take per-shard read locks.
type Store struct {
	dir    string
	psl    *psl.List
	maxSeg int64
	idx    *shardedIndex

	mu       sync.RWMutex // guards everything below
	man      *manifest
	active   *os.File
	activeSz int64
	certs    []*x509sim.Certificate // insertion order, shared across snapshots
	cp       *Checkpoint
	slice    *shard.Assignment // set by Open, never changed
	closed   bool
}

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

// defaultShards is the index shard count: the next power of two
// ≥ 2*GOMAXPROCS, clamped to [4, 256].
func defaultShards() int {
	n := 4
	for n < 2*runtime.GOMAXPROCS(0) && n < 256 {
		n *= 2
	}
	return n
}

// Open opens (or creates) the store at opts.Dir, verifies sealed segments
// against the manifest, truncates any torn tail off the active segment,
// rebuilds the sharded indexes, and pins or checks opts.Slice (checkSlice).
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
	if opts.PSL == nil {
		opts.PSL = psl.Default()
	}
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = DefaultMaxSegmentBytes
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:    opts.Dir,
		psl:    opts.PSL,
		maxSeg: opts.MaxSegmentBytes,
		idx:    newShardedIndex(defaultShards()),
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
		fresh := s.freshOf(s.prepare(loaded))
		s.idx.addBatch(fresh)
		s.certs = make([]*x509sim.Certificate, len(fresh))
		for i, p := range fresh {
			s.certs[i] = p.cert
		}
	}

	if raw, err := os.ReadFile(filepath.Join(opts.Dir, checkpointName)); err == nil {
		var cp Checkpoint
		if err := json.Unmarshal(raw, &cp); err != nil {
			return nil, fmt.Errorf("certstore: corrupt checkpoint: %v", err)
		}
		s.cp = &cp
		mCheckpointN.Set(float64(cp.NextIndex))
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
		s.slice = &a
	}
	s.publishGauges()
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

// freshOf returns the certificates of batch that are neither indexed nor
// repeated earlier in batch, in order, compacted into batch's own array.
// Callers hold s.mu or own the store (Open).
func (s *Store) freshOf(batch []prepared) []prepared {
	fresh := batch[:0]
	seen := make(map[x509sim.Fingerprint]bool, len(batch))
	for _, p := range batch {
		if seen[p.fp] || s.idx.containsFP(p.fp) {
			continue
		}
		seen[p.fp] = true
		fresh = append(fresh, p)
	}
	return fresh
}

// publishGauges refreshes the size gauges; callers hold no locks it needs.
func (s *Store) publishGauges() {
	s.mu.RLock()
	segs := len(s.man.Sealed) + 1
	var bytes int64 = s.activeSz
	for _, m := range s.man.Sealed {
		bytes += m.Bytes
	}
	n := len(s.certs)
	s.mu.RUnlock()
	mSegments.Set(float64(segs))
	mStoreBytes.Set(float64(bytes))
	mCerts.Set(float64(n))
	for i, c := range s.idx.shardCounts() {
		shardGauge(i).Set(float64(c))
	}
}

// Append durably stores and indexes every certificate not already present
// (by fingerprint, so a precert and its final cert deduplicate, matching the
// paper's criterion). It returns the number actually added. The batch is a
// single file append; the per-shard index locks are each taken once.
func (s *Store) Append(certs []*x509sim.Certificate) (int, error) {
	return s.commit(s.prepare(certs))
}

// commit is Append of a prepared batch: under the write mutex it dedups,
// writes, fsyncs and indexes.
func (s *Store) commit(batch []prepared) (int, error) {
	if len(batch) == 0 {
		return 0, nil
	}
	mAppends.Inc()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	fresh := s.freshOf(batch)
	mDeduped.Add(uint64(len(batch) - len(fresh)))
	if len(fresh) == 0 {
		s.mu.Unlock()
		return 0, nil
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
		s.mu.Unlock()
		return 0, fmt.Errorf("certstore: append: %w", err)
	}
	if err := s.active.Sync(); err != nil {
		s.mu.Unlock()
		return 0, fmt.Errorf("certstore: fsync: %w", err)
	}
	s.activeSz += int64(len(buf))
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
	s.mu.Unlock()
	mAppended.Add(uint64(len(fresh)))
	s.publishGauges()
	if sealErr != nil {
		return len(fresh), sealErr
	}
	return len(fresh), nil
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
	next := segmentFileName(len(s.man.Sealed) + 1)
	// Find an unused name (sealing is monotonic but be defensive).
	for {
		if _, err := os.Stat(filepath.Join(s.dir, next)); errors.Is(err, os.ErrNotExist) {
			break
		}
		next = segmentFileName(len(s.man.Sealed) + 2)
	}
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
	if s.cp != nil && *s.cp == cp {
		return nil
	}
	if err := writeFileAtomic(filepath.Join(s.dir, checkpointName), append(raw, '\n')); err != nil {
		return err
	}
	s.cp = &cp
	mCheckpointN.Set(float64(cp.NextIndex))
	return nil
}

// Checkpoint returns the persisted resume point, if any.
func (s *Store) Checkpoint() (Checkpoint, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.cp == nil {
		return Checkpoint{}, false
	}
	return *s.cp, true
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
func (s *Store) SegmentCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.man.Sealed) + 1
}

// Len returns the number of stored (deduplicated) certificates.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.certs)
}

// Certs returns a snapshot copy of the stored certificates in insertion
// order. Callers may keep or sort it freely.
func (s *Store) Certs() []*x509sim.Certificate {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*x509sim.Certificate, len(s.certs))
	copy(out, s.certs)
	return out
}

// ByKey resolves a CRL (issuer, serial) join key.
func (s *Store) ByKey(k x509sim.DedupKey) (*x509sim.Certificate, bool) {
	return s.idx.byKey(k)
}

// ByE2LD returns every certificate naming an FQDN under the e2LD. The slice
// is a defensive copy.
func (s *Store) ByE2LD(domain string) []*x509sim.Certificate {
	return s.idx.byE2LD(domain)
}

// ByFingerprint resolves a full 32-byte fingerprint.
func (s *Store) ByFingerprint(fp x509sim.Fingerprint) (*x509sim.Certificate, bool) {
	return s.idx.byFingerprint(fp)
}

// ByShortFingerprint resolves the 8-byte prefix form that
// x509sim.Fingerprint.String renders (16 hex digits).
func (s *Store) ByShortFingerprint(prefix [8]byte) (*x509sim.Certificate, bool) {
	var v shortFP
	for i := 0; i < 8; i++ {
		v = v<<8 | shortFP(prefix[i])
	}
	return s.idx.byShortFingerprint(v)
}

// PSL returns the public suffix list the e2LD index was built with.
func (s *Store) PSL() *psl.List { return s.psl }

// Domains returns the indexed e2LDs the store owns, sorted: every one when
// unsharded, and on a pinned slice those the ring gives the slice. A
// certificate naming several e2LDs is kept by each of their owners, so a
// slice indexes e2LDs that another slice owns and lists. Diagnostic; takes
// every shard read lock in turn.
func (s *Store) Domains() []string {
	owns := func(string) bool { return true }
	if a := s.slice; a != nil {
		ring := shard.MustRing(a.Count, shard.DefaultVNodes)
		owns = func(d string) bool { return ring.Lookup(shard.KeyForDomain(d)) == a.Index }
	}
	var out []string
	for _, sh := range s.idx.shards {
		sh.mu.RLock()
		for d := range sh.byE2LD {
			if owns(d) {
				out = append(out, d)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

var _ core.Index = (*Store)(nil)
