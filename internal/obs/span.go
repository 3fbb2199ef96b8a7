package obs

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements distributed trace capture: a bounded per-process span
// store fed by Middleware (server spans), resil.Transport (call spans and a
// client span per attempt) and StartStage (pipeline stages), with
// Dapper-style tail-based sampling — the keep/drop decision is made when a
// trace's local root span finishes, so error, degraded and slow traces are
// always kept while the healthy bulk is sampled down. Kept traces are served on every
// daemon's debug listener as /v1/traces (summaries) and /v1/traces/{id}
// (full span tree); cmd/obsagg stitches the per-daemon fragments into fleet
// traces.

// Span kinds.
const (
	SpanServer = "server" // one handled HTTP request (Middleware)
	SpanClient = "client" // one outbound HTTP attempt (resil)
	SpanCall   = "call"   // one logical outbound call spanning its retry attempts (resil)
	SpanStage  = "stage"  // one pipeline stage (StartStage)
)

// Keep reasons recorded on sampled traces.
const (
	KeepError   = "error"   // the root or any span in the trace failed
	KeepSlow    = "slow"    // root latency crossed the slow threshold
	KeepSampled = "sampled" // probabilistically kept (trace-ID-consistent)
)

// SpanRecord is one finished span as stored and served over the wire.
// Duration serializes as nanoseconds so records round-trip exactly.
type SpanRecord struct {
	TraceID  string        `json:"trace_id"`
	SpanID   string        `json:"span_id"`
	ParentID string        `json:"parent_id,omitempty"`
	Service  string        `json:"service"`
	Name     string        `json:"name"`
	Kind     string        `json:"kind"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Route    string        `json:"route,omitempty"`
	Peer     string        `json:"peer,omitempty"`
	Status   int           `json:"status,omitempty"`
	Attempt  int           `json:"attempt,omitempty"`
	Items    int64         `json:"items,omitempty"`
	Days     string        `json:"days,omitempty"` // simulated-day range a stage covered, caller-formatted
	Err      string        `json:"err,omitempty"`
}

// failed reports whether the span counts as an error for tail-keeping.
func (r SpanRecord) failed() bool { return r.Err != "" || r.Status >= 500 }

// TraceRecord is one kept trace: summary fields plus (when requested) the
// flat span list the tree is built from.
type TraceRecord struct {
	TraceID    string        `json:"trace_id"`
	Root       string        `json:"root"` // "service name" of the local root span
	Route      string        `json:"route,omitempty"`
	Start      time.Time     `json:"start"`
	Duration   time.Duration `json:"duration_ns"`
	Services   []string      `json:"services"`
	Error      bool          `json:"error"`
	KeepReason string        `json:"keep_reason"`
	Spans      []SpanRecord  `json:"spans,omitempty"`
}

// SpanTree is one node of a stitched span tree: the span with its children
// ordered by parent-span linkage and start time.
type SpanTree struct {
	SpanRecord
	Children []*SpanTree `json:"children,omitempty"`
}

// TraceTreeJSON is the /v1/traces/{id} (and /fleet/traces/{id}) payload.
// Logs carries the log records correlated to the trace: the local ring's
// matching lines on a daemon, or every daemon's matching lines on the fleet
// surface.
type TraceTreeJSON struct {
	TraceID    string        `json:"trace_id"`
	Duration   time.Duration `json:"duration_ns"`
	Services   []string      `json:"services"`
	Error      bool          `json:"error"`
	KeepReason string        `json:"keep_reason,omitempty"`
	Spans      []*SpanTree   `json:"spans"`
	Logs       []LogRecord   `json:"logs,omitempty"`
}

// Tree is the record as that payload: its spans assembled into trees, logs
// beside them.
func (tr TraceRecord) Tree(logs []LogRecord) TraceTreeJSON {
	return TraceTreeJSON{
		TraceID:    tr.TraceID,
		Duration:   tr.Duration,
		Services:   tr.Services,
		Error:      tr.Error,
		KeepReason: tr.KeepReason,
		Spans:      BuildSpanTree(tr.Spans),
		Logs:       logs,
	}
}

// BuildSpanTree assembles flat spans (possibly from several daemons) into
// trees: each span attaches under the span whose ID it names as parent;
// spans whose parent was not captured become roots. Duplicate span IDs are
// dropped, siblings are ordered by start time then span ID.
func BuildSpanTree(spans []SpanRecord) []*SpanTree {
	nodes := make(map[string]*SpanTree, len(spans))
	order := make([]*SpanTree, 0, len(spans))
	for _, s := range spans {
		if _, dup := nodes[s.SpanID]; dup {
			continue
		}
		n := &SpanTree{SpanRecord: s}
		nodes[s.SpanID] = n
		order = append(order, n)
	}
	var roots []*SpanTree
	for _, n := range order {
		if p, ok := nodes[n.ParentID]; ok && n.ParentID != n.SpanID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	sortTrees(roots)
	for _, n := range order {
		sortTrees(n.Children)
	}
	return roots
}

func sortTrees(ts []*SpanTree) {
	sort.Slice(ts, func(i, j int) bool {
		if !ts[i].Start.Equal(ts[j].Start) {
			return ts[i].Start.Before(ts[j].Start)
		}
		return ts[i].SpanID < ts[j].SpanID
	})
}

// pendingTrace buffers spans while a trace is in flight, before the local
// root finishes and the tail decision is made.
type pendingTrace struct {
	spans    []SpanRecord
	hadError bool
}

// SpanStore is a bounded per-process buffer of spans keyed by trace ID. All
// spans of an in-flight trace are buffered; when the local root span is
// recorded (RecordRoot) the tail-based sampling decision runs: error and
// slow traces are always kept, the rest are kept with trace-ID-consistent
// probability — the same trace ID yields the same verdict in every daemon,
// so a probabilistically sampled trace survives on all hops and can be
// stitched fleet-wide. Kept traces live in a ring of Capacity traces,
// evicting oldest-kept first. Safe for concurrent use.
type SpanStore struct {
	capacity int
	sample   float64
	slow     time.Duration
	// Registry receives the store's own counters (nil: Default()).
	Registry *Registry

	mu           sync.Mutex
	pending      map[string]*pendingTrace
	pendingOrder []string
	kept         map[string]*TraceRecord
	keptOrder    []string
}

// NewSpanStore builds a store keeping at most capacity traces (<=0 uses
// 256), sampling non-error non-slow traces at rate sample (clamped to
// [0,1]), and always keeping traces whose root latency reaches slow
// (slow <= 0 disables the latency rule).
func NewSpanStore(capacity int, sample float64, slow time.Duration) *SpanStore {
	if capacity <= 0 {
		capacity = 256
	}
	return &SpanStore{
		capacity: capacity,
		sample:   min(max(sample, 0), 1),
		slow:     slow,
		pending:  make(map[string]*pendingTrace),
		kept:     make(map[string]*TraceRecord),
	}
}

// The process-wide span store's shape: traceBuffer kept traces, healthy
// ones sampled at defaultTraceSample (-trace-sample's default), and a root at
// or over traceSlow always kept.
const (
	traceBuffer        = 256
	defaultTraceSample = 0.10
	traceSlow          = 250 * time.Millisecond
)

var defaultSpans atomic.Pointer[SpanStore]

func init() {
	defaultSpans.Store(NewSpanStore(traceBuffer, defaultTraceSample, traceSlow))
}

// DefaultSpans returns the process-wide span store Middleware and
// resil.Transport feed.
func DefaultSpans() *SpanStore { return defaultSpans.Load() }

// SetDefaultSpans replaces the process-wide span store. Flags.Setup calls
// this with -trace-sample.
func SetDefaultSpans(s *SpanStore) { defaultSpans.Store(s) }

func (s *SpanStore) reg() *Registry { return cmp.Or(s.Registry, Default()) }

// Record buffers one non-root span of an in-flight trace. Spans arriving
// after the trace was kept are appended to the kept record directly, so
// stragglers from concurrent goroutines are not lost.
func (s *SpanStore) Record(rec SpanRecord) {
	if rec.TraceID == "" {
		return
	}
	s.reg().Counter("trace_spans_recorded_total", "service", rec.Service).Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	if tr, ok := s.kept[rec.TraceID]; ok {
		tr.Spans = append(tr.Spans, rec)
		tr.Error = tr.Error || rec.failed()
		tr.AddService(rec.Service)
		return
	}
	s.addPendingLocked(rec)
}

// RecordRoot records the trace's local root span and makes the tail-based
// sampling decision, reporting whether the trace was kept (callers use this
// to attach histogram exemplars only for retrievable traces).
func (s *SpanStore) RecordRoot(rec SpanRecord) bool {
	if rec.TraceID == "" {
		return false
	}
	s.reg().Counter("trace_spans_recorded_total", "service", rec.Service).Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	if tr, ok := s.kept[rec.TraceID]; ok {
		// A sibling root in an already-kept trace (e.g. the retried server
		// request after a 5xx attempt): append and extend the summary.
		tr.Spans = append(tr.Spans, rec)
		tr.Error = tr.Error || rec.failed()
		tr.AddService(rec.Service)
		tr.Duration = max(tr.Duration, rec.Duration)
		return true
	}
	p := s.pending[rec.TraceID]
	reason := ""
	switch {
	case rec.failed() || (p != nil && p.hadError):
		reason = KeepError
	case s.slow > 0 && rec.Duration >= s.slow:
		reason = KeepSlow
	case traceFrac(rec.TraceID) < s.sample:
		reason = KeepSampled
	}
	if p != nil {
		s.dropPendingLocked(rec.TraceID)
	}
	if reason == "" {
		s.reg().Counter("trace_dropped_total", "service", rec.Service).Inc()
		return false
	}
	var spans []SpanRecord
	if p != nil {
		spans = p.spans
	}
	spans = append(spans, rec)
	tr := &TraceRecord{
		TraceID:    rec.TraceID,
		Root:       rec.Service + " " + rec.Name,
		Route:      rec.Route,
		Start:      rec.Start,
		Duration:   rec.Duration,
		Error:      reason == KeepError,
		KeepReason: reason,
		Spans:      spans,
	}
	for _, sp := range spans {
		tr.AddService(sp.Service)
	}
	s.kept[rec.TraceID] = tr
	s.keptOrder = append(s.keptOrder, rec.TraceID)
	for len(s.keptOrder) > s.capacity {
		delete(s.kept, s.keptOrder[0])
		s.keptOrder = s.keptOrder[1:]
	}
	s.reg().Counter("trace_kept_total", "service", rec.Service, "reason", reason).Inc()
	s.reg().Gauge("trace_store_traces").Set(float64(len(s.keptOrder)))
	return true
}

func (s *SpanStore) addPendingLocked(rec SpanRecord) {
	p := s.pending[rec.TraceID]
	if p == nil {
		p = &pendingTrace{}
		s.pending[rec.TraceID] = p
		s.pendingOrder = append(s.pendingOrder, rec.TraceID)
		// Bound the in-flight buffer too: traces whose root never finishes
		// (crashed callers, one-way fire-and-forget spans) must not leak.
		for len(s.pendingOrder) > s.capacity {
			delete(s.pending, s.pendingOrder[0])
			s.pendingOrder = s.pendingOrder[1:]
		}
	}
	p.spans = append(p.spans, rec)
	p.hadError = p.hadError || rec.failed()
}

func (s *SpanStore) dropPendingLocked(traceID string) {
	delete(s.pending, traceID)
	for i, id := range s.pendingOrder {
		if id == traceID {
			s.pendingOrder = append(s.pendingOrder[:i], s.pendingOrder[i+1:]...)
			break
		}
	}
}

// AddService inserts svc into the record's sorted, duplicate-free Services.
func (tr *TraceRecord) AddService(svc string) {
	if svc == "" {
		return
	}
	i := sort.SearchStrings(tr.Services, svc)
	if i < len(tr.Services) && tr.Services[i] == svc {
		return
	}
	tr.Services = append(tr.Services, "")
	copy(tr.Services[i+1:], tr.Services[i:])
	tr.Services[i] = svc
}

// traceFrac maps a trace ID to a uniform fraction in [0,1). It is a pure
// function of the ID, so every daemon in the fleet reaches the same
// probabilistic verdict for one trace — a sampled trace is kept on all hops
// and stitches completely.
func traceFrac(traceID string) float64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(traceID))
	x := h.Sum64()
	// FNV-1a's high bits mix poorly for short, similar IDs; finish with a
	// splitmix64 avalanche so the fraction is uniform regardless of ID shape.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// TraceFilter selects kept traces in Traces.
type TraceFilter struct {
	// Route keeps only traces whose root route matches exactly.
	Route string
	// MinDuration keeps only traces at least this long.
	MinDuration time.Duration
	// ErrorOnly keeps only traces carrying a failed span.
	ErrorOnly bool
	// Limit caps the result count (0 = all).
	Limit int
	// WithSpans includes each trace's flat span list.
	WithSpans bool
}

// Select visits n records through at, oldest at index 0, and returns copies
// of those the filter keeps, newest first: the one listing behind both the
// per-daemon /v1/traces and the fleet /fleet/traces.
func (f TraceFilter) Select(n int, at func(i int) *TraceRecord) []TraceRecord {
	out := make([]TraceRecord, 0, n)
	for i := n - 1; i >= 0; i-- {
		tr := at(i)
		if f.Route != "" && tr.Route != f.Route {
			continue
		}
		if tr.Duration < f.MinDuration {
			continue
		}
		if f.ErrorOnly && !tr.Error {
			continue
		}
		out = append(out, tr.Copy(f.WithSpans))
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// Traces returns kept traces newest-first under the filter.
func (s *SpanStore) Traces(f TraceFilter) []TraceRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return f.Select(len(s.keptOrder), func(i int) *TraceRecord { return s.kept[s.keptOrder[i]] })
}

// Trace returns one kept trace with its spans.
func (s *SpanStore) Trace(id string) (TraceRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tr, ok := s.kept[id]
	if !ok {
		return TraceRecord{}, false
	}
	return tr.Copy(true), true
}

// Len reports the number of kept traces.
func (s *SpanStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.keptOrder)
}

// Copy returns the record with its own Services slice and, when withSpans,
// its own span list (nil otherwise), safe to hand out from under a lock.
func (tr *TraceRecord) Copy(withSpans bool) TraceRecord {
	out := *tr
	out.Services = append([]string(nil), tr.Services...)
	if withSpans {
		out.Spans = append([]SpanRecord(nil), tr.Spans...)
	} else {
		out.Spans = nil
	}
	return out
}

// Handler serves the store's query surface:
//
//	GET /v1/traces        recent kept-trace summaries; filters: ?route=,
//	                      ?min_ms=, ?error=1, ?limit=, ?spans=1
//	GET /v1/traces/{id}   one trace as a full span tree
//
// Flags.Setup mounts the same surface for the process-wide store on every
// debug listener via RegisterDebug.
func (s *SpanStore) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/traces", func(w http.ResponseWriter, r *http.Request) {
		serveTraces(s, w, r)
	})
	mux.HandleFunc("GET /v1/traces/{id}", func(w http.ResponseWriter, r *http.Request) {
		serveTraceTree(s, w, r)
	})
	return mux
}

func init() {
	// Every debug listener serves the process-wide store's traces; the store
	// is resolved per request so SetDefaultSpans takes effect immediately.
	RegisterDebug("GET /v1/traces", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serveTraces(DefaultSpans(), w, r)
	}))
	RegisterDebug("GET /v1/traces/{id}", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serveTraceTree(DefaultSpans(), w, r)
	}))
}

// ParseTraceFilter decodes the shared trace-listing query parameters
// (?route=, ?min_ms=, ?error=1, ?limit=, ?spans=1) used by both the
// per-daemon /v1/traces and the fleet /fleet/traces listings.
func ParseTraceFilter(r *http.Request) (TraceFilter, error) {
	f := TraceFilter{
		Route:     r.URL.Query().Get("route"),
		ErrorOnly: r.URL.Query().Get("error") == "1",
		WithSpans: r.URL.Query().Get("spans") == "1",
	}
	if v := r.URL.Query().Get("min_ms"); v != "" {
		// A duration from 0 to the largest one; NaN fails both comparisons.
		ns, err := strconv.ParseFloat(v, 64)
		ns *= float64(time.Millisecond)
		if err != nil || !(ns >= 0 && ns < math.MaxInt64) {
			return f, fmt.Errorf("bad min_ms %q", v)
		}
		f.MinDuration = time.Duration(ns)
	}
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return f, fmt.Errorf("bad limit %q", v)
		}
		f.Limit = n
	}
	return f, nil
}

func serveTraces(s *SpanStore, w http.ResponseWriter, r *http.Request) {
	f, err := ParseTraceFilter(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	WriteJSON(w, http.StatusOK, s.Traces(f))
}

func serveTraceTree(s *SpanStore, w http.ResponseWriter, r *http.Request) {
	tr, ok := s.Trace(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown trace", http.StatusNotFound)
		return
	}
	// The local drill-down: this process's ring lines for the trace.
	WriteJSON(w, http.StatusOK, tr.Tree(defaultLogRing.Query(LogFilter{TraceID: tr.TraceID})))
}
