package obsagg

import (
	"context"
	"net/http"
	"net/url"
	"sort"
	"time"

	"stalecert/internal/obs"
)

// This file implements fleet log aggregation: the Aggregator scrapes every
// target's /v1/logs alongside /metrics and /v1/traces, dedups records by
// their per-process sequence numbers, labels them with job/instance, and
// merges them into one bounded time-ordered fleet view served at /fleet/logs
// (same filters as the per-daemon endpoint, plus ?job= and ?instance=).
// /fleet/traces/{id} uses the same store to return the log lines correlated
// to a stitched trace from every daemon that touched it, and a re-armable
// error-burst alert watches the federated log_records_total counters so a
// daemon suddenly spewing error logs pages from the same obsagg stream as
// slow traces and SLO burns.

// logScrapeOverlap is re-requested on every round so records landing just
// before the previous scrape's cutoff are not missed; the sequence-number
// high-water mark and the newest merged time dedup the overlap.
const logScrapeOverlap = 2 * time.Second

// logTargetState tracks per-target log-scrape progress.
type logTargetState struct {
	highSeq  uint64    // newest sequence number in the last batch
	lastTime time.Time // newest record time merged (the next ?since= basis)
}

// scrapeLogs fetches one target's fresh log records; targets without a
// /v1/logs (an older build or a foreign target) answer 404 and are skipped.
func (a *Aggregator) scrapeLogs(ctx context.Context, hc *http.Client, t Target) ([]obs.LogRecord, error) {
	key := t.Job + "\x00" + t.Instance()
	a.mu.RLock()
	var since time.Time
	if st, ok := a.logStates[key]; ok {
		since = st.lastTime.Add(-logScrapeOverlap)
	}
	a.mu.RUnlock()

	path := "/v1/logs"
	if !since.IsZero() {
		path += "?since=" + url.QueryEscape(since.UTC().Format(time.RFC3339Nano))
	}
	return scrapeJSON[obs.LogRecord](ctx, a, hc, t, path)
}

// mergeLogs folds one target's scraped records into the fleet view: records
// already merged are dropped, the rest gain job/instance labels and the
// merged slice is re-sorted by record time — so /fleet/logs reads
// chronologically even when instances' clocks or scrape rounds are skewed —
// and trimmed oldest-first to the buffer bound.
func (a *Aggregator) mergeLogs(t Target, recs []obs.LogRecord) {
	if len(recs) == 0 {
		return
	}
	key := t.Job + "\x00" + t.Instance()
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.logStates == nil {
		a.logStates = make(map[string]*logTargetState)
	}
	st := a.logStates[key]
	if st == nil {
		st = &logTargetState{}
		a.logStates[key] = st
	}
	// A record is already merged when its seq is at or under the mark and it
	// is no newer than the newest merged record: a re-sent overlap record is
	// both. A restarted daemon numbers from 1 again, but its records are
	// newer, however far past the old mark its seqs have run. The mark then
	// follows the batch, whose newest seq is the serving process's.
	mark := *st
	st.highSeq = 0
	added := 0
	for _, r := range recs {
		st.highSeq = max(st.highSeq, r.Seq)
		if r.Seq <= mark.highSeq && !r.Time.After(mark.lastTime) {
			continue
		}
		r.Job = t.Job
		r.Instance = t.Instance()
		a.fleetLogs = append(a.fleetLogs, r)
		added++
		if r.Time.After(st.lastTime) {
			st.lastTime = r.Time
		}
	}
	if added == 0 {
		return
	}
	sort.SliceStable(a.fleetLogs, func(i, j int) bool {
		ri, rj := a.fleetLogs[i], a.fleetLogs[j]
		if !ri.Time.Equal(rj.Time) {
			return ri.Time.Before(rj.Time)
		}
		if ri.Job != rj.Job {
			return ri.Job < rj.Job
		}
		if ri.Instance != rj.Instance {
			return ri.Instance < rj.Instance
		}
		return ri.Seq < rj.Seq
	})
	if len(a.fleetLogs) > fleetLogBuffer {
		a.fleetLogs = append([]obs.LogRecord(nil), a.fleetLogs[len(a.fleetLogs)-fleetLogBuffer:]...)
	}
}

// FleetLogs returns merged records in time order under the filter.
func (a *Aggregator) FleetLogs(f obs.LogFilter) []obs.LogRecord {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]obs.LogRecord, 0, len(a.fleetLogs))
	for _, r := range a.fleetLogs {
		if f.Matches(r) {
			out = append(out, r)
		}
	}
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}

func (a *Aggregator) handleFleetLogs(w http.ResponseWriter, r *http.Request) {
	f, err := obs.ParseLogFilter(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	obs.WriteLogJSON(w, a.FleetLogs(f))
}

// The fleet error-burst alert is the built-in "fleet-error-burst" rule on
// the rules engine (rules.go): sum by (job) (irate(log_records_total{
// level="error"}[retention])) > errorBurstThreshold. irate over the TSDB's
// last two appended points reproduces the legacy delta-between-checks
// detector, including restart re-baselining — a counter reset contributes
// only the post-restart value — while the ring-eviction-proof counter
// source and the obsagg_error_burst_alerts_total{job} firing counter are
// unchanged.

// FleetTraceLogs returns the merged log records correlated to one trace ID,
// in time order — the drill-down /fleet/traces/{id} embeds.
func (a *Aggregator) FleetTraceLogs(traceID string) []obs.LogRecord {
	return a.FleetLogs(obs.LogFilter{TraceID: traceID})
}
