// Package obs is the stdlib-only observability layer shared by every daemon
// and pipeline stage: a lock-cheap metrics registry (counters, gauges,
// log-bucketed histograms with labels), request middleware and a span store
// for distributed traces, Prometheus / pprof HTTP exposition, and
// slog setup. Instrumented packages use the process-wide Default registry;
// tests can construct private registries. The fleet side — scraping,
// federating and querying what these daemons expose — is internal/obsagg.
package obs

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind discriminates metric types.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind in Prometheus TYPE syntax.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing count. All methods are safe for
// concurrent use and allocation-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous float value.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Add adjusts the value by delta (CAS loop; lock-free).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := floatBits(floatFrom(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return floatFrom(g.bits.Load()) }

// Exemplar links one histogram bucket to a sampled trace: the exposition
// emits OpenMetrics `# {trace_id="..."} value` syntax after the bucket line,
// so a latency spike points straight at a stored trace.
type Exemplar struct {
	TraceID string
	Value   float64
}

// Histogram accumulates observations into fixed buckets with upper bounds
// Bounds (plus an implicit +Inf overflow bucket). Safe for concurrent use.
type Histogram struct {
	bounds    []float64
	counts    []atomic.Uint64 // len(bounds)+1; last is +Inf
	exemplars []atomic.Pointer[Exemplar]
	count     atomic.Uint64
	sumBits   atomic.Uint64
}

// bucketIndex returns the first bucket whose upper bound contains v
// (v <= bound); len(bounds) is the +Inf overflow bucket.
func (h *Histogram) bucketIndex(v float64) int {
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) && h.bounds[i] < v {
		i++
	}
	return i
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := floatBits(floatFrom(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveExemplar records one value and attaches the trace ID as the
// exemplar of the bucket the observation lands in (last writer wins).
// Callers pass only trace IDs that are retrievable — i.e. the tail sampler
// kept the trace — so every exposed exemplar can be followed to /v1/traces.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if traceID != "" {
		h.exemplars[h.bucketIndex(v)].Store(&Exemplar{TraceID: traceID, Value: v})
	}
	h.Observe(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *Histogram) Sum() float64 { return floatFrom(h.sumBits.Load()) }

// ExpBuckets returns n log-scaled bucket upper bounds starting at start and
// growing by factor: start, start*factor, start*factor^2, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets covers 1µs through ~72min in ×4 steps — the default for
// latency histograms (observe seconds). A histogram that needs a boundary
// somewhere in particular, such as on an SLO threshold, passes its own bounds
// to Registry.Histogram.
var DurationBuckets = ExpBuckets(1e-6, 4, 16)

// SizeBuckets covers 1B through ~1GiB in ×4 steps — the default for payload
// sizes (observe bytes).
var SizeBuckets = ExpBuckets(1, 4, 16)

func floatBits(f float64) uint64 { return math.Float64bits(f) }

func floatFrom(b uint64) float64 { return math.Float64frombits(b) }

var inf = math.Inf(1)

// metric is one registered time series: a family name plus a rendered label
// set, holding exactly one of the three instrument types.
type metric struct {
	family string
	labels string // `{k="v",...}` or ""
	kind   Kind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry is a set of named metrics. Looking up a series that was looked up
// before with the same arguments is one lock-free map read — no label set is
// rendered, nothing allocated and no lock taken, so per-request call sites
// need no handle caching of their own; updates on the returned instruments
// are pure atomics. The zero value is not usable; construct with NewRegistry
// (or use Default).
type Registry struct {
	mu       sync.RWMutex
	metrics  map[string]*metric // by family + rendered label set
	families map[string]Kind
	hooks    []func()
	// byArgs resolves (family, label pairs as passed) to the series without
	// rendering them. Copy-on-write under mu: the key space is the call
	// sites' bounded label values.
	byArgs atomic.Pointer[map[string]*metric]
}

// appendArgs appends a lookup's arguments as byArgs keys them, uninterpreted
// (label pairs in another order name the same series under another key):
// each string length-prefixed, so no two argument lists share a key.
func appendArgs(b []byte, family string, labelPairs []string) []byte {
	b = append(binary.AppendUvarint(b, uint64(len(family))), family...)
	for _, s := range labelPairs {
		b = append(binary.AppendUvarint(b, uint64(len(s))), s...)
	}
	return b
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		metrics:  make(map[string]*metric),
		families: make(map[string]Kind),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every instrumented package uses.
func Default() *Registry { return defaultRegistry }

// Counter returns (registering on first use) the counter with the given
// family name and label pairs ("key", "value", ...).
func (r *Registry) Counter(name string, labelPairs ...string) *Counter {
	m := r.lookup(name, KindCounter, nil, labelPairs)
	return m.c
}

// Gauge returns the gauge with the given name and label pairs.
func (r *Registry) Gauge(name string, labelPairs ...string) *Gauge {
	m := r.lookup(name, KindGauge, nil, labelPairs)
	return m.g
}

// Histogram returns the histogram with the given name, bucket upper bounds
// (nil for DurationBuckets) and label pairs. Bounds are fixed at first
// registration.
func (r *Registry) Histogram(name string, bounds []float64, labelPairs ...string) *Histogram {
	if bounds == nil {
		bounds = DurationBuckets
	}
	m := r.lookup(name, KindHistogram, bounds, labelPairs)
	return m.h
}

func (r *Registry) lookup(family string, kind Kind, bounds []float64, labelPairs []string) *metric {
	// Indexing the map with string(key) copies nothing: a warm lookup
	// allocates only when its arguments outgrow buf.
	var buf [128]byte
	key := appendArgs(buf[:0], family, labelPairs)
	if byArgs := r.byArgs.Load(); byArgs != nil {
		if m, ok := (*byArgs)[string(key)]; ok {
			return m.mustBe(kind)
		}
	}

	labels := FormatLabels(labelPairs)
	full := family + labels
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.metrics[full]
	if !ok {
		if k, ok := r.families[family]; ok && k != kind {
			panic(fmt.Sprintf("obs: family %q holds %v metrics, requested %v", family, k, kind))
		}
		m = &metric{family: family, labels: labels, kind: kind}
		switch kind {
		case KindCounter:
			m.c = &Counter{}
		case KindGauge:
			m.g = &Gauge{}
		case KindHistogram:
			h := &Histogram{bounds: bounds}
			h.counts = make([]atomic.Uint64, len(bounds)+1)
			h.exemplars = make([]atomic.Pointer[Exemplar], len(bounds)+1)
			m.h = h
		}
		r.metrics[full] = m
		r.families[family] = kind
	}
	m.mustBe(kind)
	next := map[string]*metric{string(key): m}
	if byArgs := r.byArgs.Load(); byArgs != nil {
		maps.Copy(next, *byArgs)
	}
	r.byArgs.Store(&next)
	return m
}

// mustBe panics when a series is looked up as another kind than it holds.
func (m *metric) mustBe(kind Kind) *metric {
	if m.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", m.family+m.labels, kind, m.kind))
	}
	return m
}

// BucketCount is one histogram bucket in a snapshot: the cumulative count of
// observations at or below UpperBound, plus the bucket's exemplar when an
// observation was recorded with a sampled trace ID.
type BucketCount struct {
	UpperBound float64
	Count      uint64 // cumulative
	Exemplar   *Exemplar
}

// Sample is one metric's state in a snapshot.
type Sample struct {
	Name   string // family name
	Labels string // rendered label set ("" or `{k="v"}`)
	Kind   Kind

	// Counter / gauge value.
	Value float64

	// Histogram state; Buckets are cumulative and end with the +Inf bucket
	// (UpperBound = +Inf, Count = Count field).
	Count   uint64
	Sum     float64
	Buckets []BucketCount
}

// FullName returns the family with its label set appended.
func (s Sample) FullName() string { return s.Name + s.Labels }

// OnSnapshot registers a hook run at the start of every Snapshot, before
// metrics are collected. Runtime collectors use it to refresh point-in-time
// gauges (goroutines, heap) exactly when a scrape reads them, with no
// background ticker.
func (r *Registry) OnSnapshot(hook func()) {
	r.mu.Lock()
	r.hooks = append(r.hooks, hook)
	r.mu.Unlock()
}

// Snapshot returns a deterministic (sorted by family then labels) view of
// every registered metric.
func (r *Registry) Snapshot() []Sample {
	r.mu.RLock()
	hooks := append([]func(){}, r.hooks...)
	r.mu.RUnlock()
	for _, hook := range hooks {
		hook()
	}

	r.mu.RLock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	r.mu.RUnlock()

	sort.Slice(ms, func(i, j int) bool {
		if ms[i].family != ms[j].family {
			return ms[i].family < ms[j].family
		}
		return ms[i].labels < ms[j].labels
	})

	out := make([]Sample, 0, len(ms))
	for _, m := range ms {
		s := Sample{Name: m.family, Labels: m.labels, Kind: m.kind}
		switch m.kind {
		case KindCounter:
			s.Value = float64(m.c.Value())
		case KindGauge:
			s.Value = m.g.Value()
		case KindHistogram:
			s.Count = m.h.Count()
			s.Sum = m.h.Sum()
			var cum uint64
			s.Buckets = make([]BucketCount, 0, len(m.h.bounds)+1)
			for i, b := range m.h.bounds {
				cum += m.h.counts[i].Load()
				s.Buckets = append(s.Buckets, BucketCount{UpperBound: b, Count: cum,
					Exemplar: m.h.exemplars[i].Load()})
			}
			cum += m.h.counts[len(m.h.bounds)].Load()
			s.Buckets = append(s.Buckets, BucketCount{UpperBound: inf, Count: cum,
				Exemplar: m.h.exemplars[len(m.h.bounds)].Load()})
		}
		out = append(out, s)
	}
	return out
}
