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
	// lag is the entries behind the head after the last Sync.
	lag      uint64
	mKept    *obs.Counter
	mSkipped *obs.Counter
}

// NewIngester tails client into store, from the store's checkpoint if it
// has one, keeping only the certificates of the store's slice. Every entry is
// still fetched and checked for index contiguity — the checkpoint advances
// over every entry, and every round's tree head must extend the last one's;
// no entry is hashed — but only certificates the slice owns (shard.Keeps)
// reach the store. A sharded fleet points N ingesters at the same log, each
// into a store opened as another slice.
func NewIngester(store *Store, client *ctlog.Client) *Ingester {
	if _, ok := store.Checkpoint(); ok {
		mIngestResumes.Inc()
	}
	ing := &Ingester{Store: store, Client: client}
	if a := store.slice; a != nil {
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
// entries at the default page size): what a catch-up holds in memory, twice
// over while one batch is appended and the next scraped, and what a crash
// makes it refetch.
const syncBatchPages = 16

// Sync performs one ingest round: fetch the log's head, verify it against
// the checkpointed one, then scrape from the checkpoint to that head,
// appending the certificates batch by batch as pages arrive. The checkpoint
// moves after each batch's Append (and so its fsync) has returned: a round
// that fails or is killed part-way keeps its whole batches and the next
// resumes after them. It returns the number of new certificates stored
// (after dedup), also beside an error.
func (ing *Ingester) Sync(ctx context.Context) (int, error) {
	stored, err := ing.sync(ctx)
	return len(stored), err
}

// scraped is one batch the scrape stage hands the append stage: the kept
// certificates of its entries, prepared, and the index after its last entry.
type scraped struct {
	certs   []prepared
	entries int
	pages   int
	next    uint64
}

// sync runs a round in two stages with one batch in flight. The calling
// goroutine scrapes: it fetches and decodes pages and prepares each entry
// once (fingerprint, e2LDs, the slice's keep decision). The append stage
// dedups, writes, fsyncs, indexes and checkpoints the previous batch
// meanwhile. A scrape error drops the batch being gathered; an append error
// cancels the scrape. Either way the round returns after the append stage
// has finished the batches it was handed. It returns the certificates the
// round stored, in order.
func (ing *Ingester) sync(ctx context.Context) (_ []*x509sim.Certificate, err error) {
	mIngestRounds.Inc()
	defer func() {
		if err != nil {
			mIngestErrors.Inc()
		}
	}()
	sth, err := ing.Client.GetSTH(ctx)
	if err != nil {
		return nil, err
	}
	cp, _ := ing.Store.Checkpoint()
	if err := ing.verifyHead(ctx, cp, sth); err != nil {
		return nil, err
	}
	// Set before any batch lands, so the gauge never reads 0 in the middle of
	// a round that is behind.
	ing.setLag(sth.Size, cp.NextIndex)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	batches, done := make(chan scraped), make(chan struct{})
	var stored []*x509sim.Certificate
	var appendErr error
	go func() {
		defer close(done)
		for b := range batches {
			if appendErr == nil {
				var got []*x509sim.Certificate
				got, appendErr = ing.ingest(b, sth)
				stored = append(stored, got...)
				if appendErr != nil {
					cancel()
				}
			}
		}
	}()

	b := scraped{next: cp.NextIndex}
	send := func() error {
		select {
		case batches <- b:
			b = scraped{next: b.next}
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	err = ing.Client.ScrapePages(ctx, sth, ctlog.ScrapeOptions{From: cp.NextIndex}, func(page []ctlog.Entry) error {
		ing.gather(&b, page)
		if b.pages++; b.pages < syncBatchPages {
			return nil
		}
		return send()
	})
	if err == nil {
		// The last, short batch; an idle round still records the head it ran under.
		err = send()
	}
	close(batches)
	<-done
	if appendErr != nil {
		return stored, appendErr
	}
	return stored, err
}

// gather adds page's entries to b, preparing each entry's certificate once and
// keeping it if the store's slice owns it.
func (ing *Ingester) gather(b *scraped, page []ctlog.Entry) {
	if b.certs == nil {
		b.certs = make([]prepared, 0, syncBatchPages*len(page))
	}
	for _, e := range page {
		p := prepareCert(ing.Store.psl, e.Cert)
		if ing.Store.keeps(p) {
			b.certs = append(b.certs, p)
		}
		b.next = max(b.next, e.Index+1)
	}
	b.entries += len(page)
}

// ingest appends a batch's kept certificates and then moves the checkpoint
// past its entries. It returns the certificates it stored.
func (ing *Ingester) ingest(b scraped, sth ctlog.SignedTreeHead) ([]*x509sim.Certificate, error) {
	if ing.mKept != nil {
		ing.mKept.Add(uint64(len(b.certs)))
		ing.mSkipped.Add(uint64(b.entries - len(b.certs)))
	}
	stored, err := ing.Store.commit(b.certs)
	if err != nil {
		return stored, err
	}
	mEntriesTailed.Add(uint64(b.entries))
	ing.setLag(sth.Size, b.next)
	if err := ing.Store.SetCheckpoint(Checkpoint{
		LogName:   sth.LogName,
		NextIndex: b.next,
		STHSize:   sth.Size,
		STHRoot:   hex.EncodeToString(sth.Root[:]),
		Timestamp: sth.Timestamp,
	}); err != nil {
		return stored, err
	}
	return stored, nil
}

// setLag records how far next trails a head of size entries.
func (ing *Ingester) setLag(size, next uint64) {
	ing.lag = size - min(size, next)
	mIngestLag.Set(float64(ing.lag))
}

// Run syncs every interval until the context is cancelled, logging nothing
// itself — callers observe progress through the metric families and onSync,
// which gets each round's stored certificates, in order, and error. The first
// sync happens immediately. A failed round does not end the loop: the
// checkpoint stays where the last success left it and the next round is
// scheduled with exponential backoff (interval … 32×interval), so an
// ingester rides out a restarting log server and resumes tailing with no
// gap or duplication once it returns.
func (ing *Ingester) Run(ctx context.Context, interval time.Duration, onSync func(stored []*x509sim.Certificate, err error)) {
	wait := interval
	for {
		stored, err := ing.sync(ctx)
		if onSync != nil {
			onSync(stored, err)
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
