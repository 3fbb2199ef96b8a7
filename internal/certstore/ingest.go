package certstore

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"stalecert/internal/ctlog"
	"stalecert/internal/merkle"
	"stalecert/internal/obs"
	"stalecert/internal/shard"
	"stalecert/internal/x509sim"
)

// Ingester metrics: sync rounds, entries and certificates absorbed, lag
// behind the log head at the end of the last round, and resume events.
var (
	mIngestRounds   = obs.Default().Counter("certstore_ingest_rounds_total")
	mIngestErrors   = obs.Default().Counter("certstore_ingest_errors_total")
	mEntriesTailed  = obs.Default().Counter("certstore_ingest_entries_total")
	mIngestLag      = obs.Default().Gauge("certstore_ingest_lag_entries")
	mIngestResumes  = obs.Default().Counter("certstore_ingest_resumes_total")
	mIngestBackoffs = obs.Default().Counter("certstore_ingest_backoffs_total")
)

// Sharded ingest keeps/skips counters, labelled by the replica's ring slice
// ("i/N") so a fleet dashboard shows each shard absorbing its share of the
// log and nothing else.
func ingestKeptCounter(shard string) *obs.Counter {
	return obs.Default().Counter("certstore_ingest_kept_total", "shard", shard)
}

func ingestSkippedCounter(shard string) *obs.Counter {
	return obs.Default().Counter("certstore_ingest_skipped_total", "shard", shard)
}

// Ingester incrementally tails one CT log into a Store. The resume position
// lives in the store's persisted checkpoint, so a restarted process picks up
// where the previous one stopped instead of re-scraping the log. Every round
// — a restarted process's first and a running one's every later one — checks
// the head it is about to scrape under against the checkpointed head, so a
// log that rewrote history is refused whenever it does so.
type Ingester struct {
	Store  *Store
	Client *ctlog.Client
	// BatchSize is the get-entries page size (0 = the client default).
	BatchSize uint64
	// keep is the filter of the store's slice; nil keeps everything. Every
	// entry is still fetched and checked for index contiguity — the
	// checkpoint advances over every entry, and every round's tree head must
	// extend the last one's; no entry is hashed — but only certificates the
	// slice owns reach the store. A sharded fleet points N ingesters at the
	// same log, each into a store opened as another slice.
	keep func(*x509sim.Certificate) bool
	// lag is the entries behind the head after the last Sync.
	lag      uint64
	mKept    *obs.Counter
	mSkipped *obs.Counter
}

// NewIngester tails client into store, from the store's checkpoint if it
// has one, keeping only the certificates of the store's slice.
func NewIngester(store *Store, client *ctlog.Client) *Ingester {
	if _, ok := store.Checkpoint(); ok {
		mIngestResumes.Inc()
	}
	ing := &Ingester{Store: store, Client: client}
	if a := store.Slice(); a != nil {
		ing.keep = shard.KeepFunc(*a, store.PSL())
		ing.mKept, ing.mSkipped = ingestKeptCounter(a.String()), ingestSkippedCounter(a.String())
	}
	return ing
}

// Lag returns the entries the store trailed the log head by at the end of
// the last sync round.
func (ing *Ingester) Lag() uint64 { return ing.lag }

// verifyHead checks that sth, the head a round is about to scrape under,
// extends the checkpointed one: equal size means equal root, a larger tree
// needs a consistency proof, a smaller one is refused. A store without a
// checkpoint (or checkpointed on the empty tree) accepts any head.
func (ing *Ingester) verifyHead(ctx context.Context, cp Checkpoint, sth ctlog.SignedTreeHead) error {
	if cp.STHSize == 0 {
		return nil
	}
	if cp.STHSize > sth.Size {
		return fmt.Errorf("certstore: log shrank below checkpoint: %d -> %d", cp.STHSize, sth.Size)
	}
	root, err := cp.Root()
	if err != nil {
		return err
	}
	if cp.STHSize == sth.Size {
		if root != sth.Root {
			return fmt.Errorf("certstore: log rewrote history at size %d", sth.Size)
		}
		return nil
	}
	proof, err := ing.Client.GetConsistency(ctx, cp.STHSize, sth.Size)
	if err != nil {
		return fmt.Errorf("certstore: consistency proof: %w", err)
	}
	if !merkle.VerifyConsistency(cp.STHSize, sth.Size, root, sth.Root, proof) {
		return fmt.Errorf("certstore: consistency check failed: %d -> %d", cp.STHSize, sth.Size)
	}
	return nil
}

// syncBatchPages is how many get-entries pages Sync appends at a time (4 096
// entries at the default page size): what a catch-up holds in memory, and
// what a crash makes it refetch.
const syncBatchPages = 16

// Sync performs one ingest round: fetch the log's head, verify it against
// the checkpointed one, then scrape from the checkpoint to that head,
// appending the certificates batch by batch as pages arrive. The checkpoint
// moves after each batch's Append (and so its fsync) has returned: a round
// that fails or is killed part-way keeps its whole batches and the next
// resumes after them. It returns the number of new certificates stored
// (after dedup), also beside an error.
func (ing *Ingester) Sync(ctx context.Context) (int, error) {
	mIngestRounds.Inc()
	added, err := ing.sync(ctx)
	if err != nil {
		mIngestErrors.Inc()
	}
	return added, err
}

func (ing *Ingester) sync(ctx context.Context) (int, error) {
	sth, err := ing.Client.GetSTH(ctx)
	if err != nil {
		return 0, err
	}
	cp, _ := ing.Store.Checkpoint()
	if err := ing.verifyHead(ctx, cp, sth); err != nil {
		return 0, err
	}
	var batch []ctlog.Entry
	added, pages := 0, 0
	flush := func() error {
		n, err := ing.ingest(batch, sth)
		added += n
		batch, pages = batch[:0], 0
		return err
	}
	err = ing.Client.ScrapePages(ctx, sth, ctlog.ScrapeOptions{
		From:      cp.NextIndex,
		BatchSize: ing.BatchSize,
	}, func(page []ctlog.Entry) error {
		batch = append(batch, page...)
		if pages++; pages < syncBatchPages {
			return nil
		}
		return flush()
	})
	if err != nil {
		return added, err
	}
	// The last, short batch; an idle round still records the head it ran under.
	err = flush()
	return added, err
}

// ingest appends entries' kept certificates and then moves the checkpoint
// past them.
func (ing *Ingester) ingest(entries []ctlog.Entry, sth ctlog.SignedTreeHead) (int, error) {
	cp, _ := ing.Store.Checkpoint()
	next := cp.NextIndex
	certs := make([]*x509sim.Certificate, 0, len(entries))
	var kept, skipped uint64
	for _, e := range entries {
		if ing.keep != nil && !ing.keep(e.Cert) {
			skipped++
		} else {
			certs = append(certs, e.Cert)
			kept++
		}
		if e.Index >= next {
			next = e.Index + 1
		}
	}
	if ing.mKept != nil {
		ing.mKept.Add(kept)
		ing.mSkipped.Add(skipped)
	}
	added, err := ing.Store.Append(certs)
	if err != nil {
		return added, err
	}
	mEntriesTailed.Add(uint64(len(entries)))
	if sth.Size > next {
		ing.lag = sth.Size - next
	} else {
		ing.lag = 0
	}
	mIngestLag.Set(float64(ing.lag))
	if err := ing.Store.SetCheckpoint(Checkpoint{
		LogName:   sth.LogName,
		NextIndex: next,
		STHSize:   sth.Size,
		STHRoot:   hex.EncodeToString(sth.Root[:]),
		Timestamp: sth.Timestamp,
	}); err != nil {
		return added, err
	}
	return added, nil
}

// Run syncs every interval until the context is cancelled, logging nothing
// itself — callers observe progress through the metric families. The first
// sync happens immediately. A failed round does not end the loop: the
// checkpoint stays where the last success left it and the next round is
// scheduled with exponential backoff (interval … 32×interval), so an
// ingester rides out a restarting log server and resumes tailing with no
// gap or duplication once it returns.
func (ing *Ingester) Run(ctx context.Context, interval time.Duration, onSync func(added int, err error)) {
	wait := interval
	for {
		added, err := ing.Sync(ctx)
		if onSync != nil {
			onSync(added, err)
		}
		if err == nil || errors.Is(err, context.Canceled) {
			wait = interval
		} else {
			mIngestBackoffs.Inc()
			wait *= 2
			if wait > 32*interval {
				wait = 32 * interval
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(wait):
		}
	}
}
