package obsagg

import (
	"net/http"
	"sort"
	"strings"
	"time"

	"stalecert/internal/obs"
)

// This file implements fleet trace assembly: the Aggregator scrapes every
// target's /v1/traces alongside /metrics and stitches the per-daemon
// fragments of each trace ID into one fleet-wide record — the spans a
// request left in ctlogd, staleapid and the evidence fetcher become a single
// tree, retrievable from /fleet/traces/{id}. Stitching works because the
// tail-sampling verdict is trace-ID-consistent: a trace kept on one hop is
// kept on all hops (error/slow keeps are local, but those hops' fragments
// still carry the shared trace ID and merge with whatever else was kept).

// DefaultFleetTraceBuffer bounds stitched traces retained by an Aggregator
// when TraceBuffer is unset.
const DefaultFleetTraceBuffer = 512

// fleetTrace is one stitched trace being assembled across scrape rounds.
type fleetTrace struct {
	rec     obs.TraceRecord
	spanIDs map[string]struct{}
	// lastAlert is when the slow-trace alert last fired for this trace;
	// zero means never. The alert re-arms after the aggregator's AlertRearm
	// quiet period, so a trace that keeps growing across scrape rounds
	// keeps alerting instead of firing exactly once forever.
	lastAlert time.Time
}

// mergeTraces folds one daemon's trace fragments into the fleet view:
// spans dedup by span ID (re-scraping the same target is idempotent), the
// summary extends to cover the earliest start and latest end seen, and the
// root is taken from the earliest-starting fragment — the hop that
// originated the request. Newly slow fleet traces raise a one-shot alert.
func (a *Aggregator) mergeTraces(traces []obs.TraceRecord) {
	type alert struct{ rec obs.TraceRecord }
	var alerts []alert
	a.mu.Lock()
	if a.traces == nil {
		a.traces = make(map[string]*fleetTrace)
	}
	for _, tr := range traces {
		if tr.TraceID == "" {
			continue
		}
		ft := a.traces[tr.TraceID]
		if ft == nil {
			ft = &fleetTrace{
				rec:     obs.TraceRecord{TraceID: tr.TraceID, Root: tr.Root, Route: tr.Route, Start: tr.Start, KeepReason: tr.KeepReason},
				spanIDs: make(map[string]struct{}),
			}
			a.traces[tr.TraceID] = ft
			a.traceOrder = append(a.traceOrder, tr.TraceID)
			max := a.TraceBuffer
			if max <= 0 {
				max = DefaultFleetTraceBuffer
			}
			for len(a.traceOrder) > max {
				delete(a.traces, a.traceOrder[0])
				a.traceOrder = a.traceOrder[1:]
			}
		}
		end := ft.rec.Start.Add(ft.rec.Duration)
		if fragEnd := tr.Start.Add(tr.Duration); fragEnd.After(end) {
			end = fragEnd
		}
		if tr.Start.Before(ft.rec.Start) {
			// Earlier-starting fragment: this hop originated the request, so
			// its root names the fleet trace.
			ft.rec.Start = tr.Start
			ft.rec.Root = tr.Root
			if tr.Route != "" {
				ft.rec.Route = tr.Route
			}
		}
		ft.rec.Duration = end.Sub(ft.rec.Start)
		ft.rec.Error = ft.rec.Error || tr.Error
		ft.rec.KeepReason = strongerKeep(ft.rec.KeepReason, tr.KeepReason)
		for _, sp := range tr.Spans {
			if _, dup := ft.spanIDs[sp.SpanID]; dup {
				continue
			}
			ft.spanIDs[sp.SpanID] = struct{}{}
			ft.rec.Spans = append(ft.rec.Spans, sp)
			ft.rec.AddService(sp.Service)
		}
		if a.TraceSlow > 0 && ft.rec.Duration >= a.TraceSlow && a.shouldAlert(ft) {
			ft.lastAlert = a.now()
			alerts = append(alerts, alert{rec: ft.rec.Copy(false)})
		}
	}
	a.mu.Unlock()
	for _, al := range alerts {
		a.logger().Warn("slow trace", "trace_id", al.rec.TraceID,
			"duration_ms", float64(al.rec.Duration.Microseconds())/1000,
			"root", al.rec.Root, "services", strings.Join(al.rec.Services, ","),
			"threshold_ms", float64(a.TraceSlow.Microseconds())/1000)
		a.reg().Counter("obsagg_slow_traces_total").Inc()
	}
}

// shouldAlert applies the re-arm policy: a never-alerted trace always
// fires; an already-alerted one fires again only when AlertRearm > 0 and
// the quiet period has passed since the last alert (AlertRearm == 0 keeps
// the legacy one-shot behaviour).
func (a *Aggregator) shouldAlert(ft *fleetTrace) bool {
	if ft.lastAlert.IsZero() {
		return true
	}
	return a.AlertRearm > 0 && a.now().Sub(ft.lastAlert) >= a.AlertRearm
}

// FleetTraces returns stitched traces newest-first under the filter.
func (a *Aggregator) FleetTraces(f obs.TraceFilter) []obs.TraceRecord {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return f.Select(len(a.traceOrder), func(i int) *obs.TraceRecord { return &a.traces[a.traceOrder[i]].rec })
}

// FleetTrace returns one stitched trace with its spans.
func (a *Aggregator) FleetTrace(id string) (obs.TraceRecord, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	ft, ok := a.traces[id]
	if !ok {
		return obs.TraceRecord{}, false
	}
	return ft.rec.Copy(true), true
}

// strongerKeep merges keep reasons: error dominates slow dominates sampled —
// the fleet record reports the strongest reason any hop kept the trace for.
func strongerKeep(cur, next string) string {
	rank := func(r string) int {
		switch r {
		case obs.KeepError:
			return 3
		case obs.KeepSlow:
			return 2
		case obs.KeepSampled:
			return 1
		}
		return 0
	}
	if rank(next) > rank(cur) {
		return next
	}
	return cur
}

func (a *Aggregator) handleFleetTraces(w http.ResponseWriter, r *http.Request) {
	f, err := obs.ParseTraceFilter(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	traces := a.FleetTraces(f)
	// Newest-first is scrape-order here, not strictly time-order: re-sort by
	// start so the listing reads chronologically.
	sort.Slice(traces, func(i, j int) bool { return traces[i].Start.After(traces[j].Start) })
	obs.WriteJSON(w, http.StatusOK, traces)
}

func (a *Aggregator) handleFleetTrace(w http.ResponseWriter, r *http.Request) {
	tr, ok := a.FleetTrace(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown trace", http.StatusNotFound)
		return
	}
	// The drill-down layer: every daemon's log lines for this trace, merged
	// and time-ordered by the fleet log store.
	obs.WriteJSON(w, http.StatusOK, tr.Tree(a.FleetTraceLogs(tr.TraceID)))
}
