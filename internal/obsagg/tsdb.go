package obsagg

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"stalecert/internal/obs"
)

// This file implements the fleet time-series database inside obsagg: every
// federation round appends the already-parsed, relabelled samples into
// per-series ring buffers, bounded by a retention window and a series cap,
// so /fleet/query can answer range questions ("what was ingest throughput
// over the last 10 minutes?") without an external Prometheus. Histogram
// samples are expanded into the conventional _bucket/_sum/_count float
// series (bucket exemplars ride along), label sets are interned, and series
// whose target vanished are marked stale so instant queries stop returning
// them while their history stays queryable until retention evicts it.

// TSDB defaults; a zero TSDB is usable and applies all of them.
const (
	DefaultTSDBRetention = 15 * time.Minute
	DefaultTSDBMaxSeries = 50000
)

// tsdbLookback is how far back an instant query may reach for a series'
// newest point (capped at the retention and staleness windows).
const tsdbLookback = 5 * time.Minute

// Point is one timestamped value in a series.
type Point struct {
	T time.Time
	V float64
}

type tsSeries struct {
	name       string
	labels     string   // canonical rendered label set ("" or `{k="v",...}`)
	pairs      []string // decoded key/value pairs, sorted by key
	kind       obs.Kind
	pts        []Point
	lastAppend time.Time
	stale      bool // target vanished: excluded from instant answers
	exemplar   *obs.Exemplar
}

// TSDB is an in-memory time-series store: one ring of points per unique
// (name, label set), appended by the aggregator each scrape round. All
// methods are safe for concurrent use. The zero value is ready to use.
type TSDB struct {
	// Retention bounds how far back points are kept (<= 0: DefaultTSDBRetention).
	Retention time.Duration
	// MaxSeries caps live series; appends that would create more are
	// dropped and counted (<= 0: DefaultTSDBMaxSeries).
	MaxSeries int
	// StaleAfter is how long a series may go without an append before
	// instant queries drop it (<= 0: Retention). The aggregator also
	// marks a vanished target's series stale explicitly once its scrapes
	// have failed for this long.
	StaleAfter time.Duration

	mu      sync.RWMutex
	byName  map[string]map[string]*tsSeries // family -> labels -> series
	intern  map[string]string
	total   int
	points  uint64
	dropped uint64
}

func (db *TSDB) retention() time.Duration {
	if db.Retention > 0 {
		return db.Retention
	}
	return DefaultTSDBRetention
}

func (db *TSDB) maxSeries() int {
	if db.MaxSeries > 0 {
		return db.MaxSeries
	}
	return DefaultTSDBMaxSeries
}

func (db *TSDB) staleAfter() time.Duration {
	if db.StaleAfter > 0 {
		return db.StaleAfter
	}
	return db.retention()
}

// internLocked dedups label-set strings: every series holding the same
// rendered label set shares one backing string instead of a fresh copy per
// scrape round.
func (db *TSDB) internLocked(s string) string {
	if s == "" {
		return ""
	}
	if db.intern == nil {
		db.intern = make(map[string]string)
	}
	if c, ok := db.intern[s]; ok {
		return c
	}
	c := strings.Clone(s)
	db.intern[c] = c
	return c
}

// Append records one scrape round's samples at time now. Histograms are
// expanded into float _bucket/_sum/_count series (cumulative counts, like
// the exposition format), so query functions see plain number series.
// Appending to a series clears its stale mark.
func (db *TSDB) Append(now time.Time, samples []obs.Sample) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, s := range samples {
		switch s.Kind {
		case obs.KindHistogram:
			for _, b := range s.Buckets {
				db.appendLocked(now, s.Name+"_bucket", obs.WithLE(s.Labels, b.UpperBound), obs.KindCounter, float64(b.Count), b.Exemplar)
			}
			db.appendLocked(now, s.Name+"_sum", s.Labels, obs.KindCounter, s.Sum, nil)
			db.appendLocked(now, s.Name+"_count", s.Labels, obs.KindCounter, float64(s.Count), nil)
		default:
			db.appendLocked(now, s.Name, s.Labels, s.Kind, s.Value, nil)
		}
	}
}

func (db *TSDB) appendLocked(now time.Time, name, labels string, kind obs.Kind, v float64, ex *obs.Exemplar) {
	if db.byName == nil {
		db.byName = make(map[string]map[string]*tsSeries)
	}
	fam := db.byName[name]
	if fam == nil {
		fam = make(map[string]*tsSeries)
		db.byName[name] = fam
	}
	sr := fam[labels]
	if sr == nil {
		if db.total >= db.maxSeries() {
			db.dropped++
			return
		}
		pairs, err := obs.LabelPairs(labels)
		if err != nil {
			db.dropped++
			return
		}
		sr = &tsSeries{name: db.internLocked(name), labels: db.internLocked(labels), pairs: pairs, kind: kind}
		fam[labels] = sr
		db.total++
	}
	if ex != nil {
		sr.exemplar = ex
	}
	sr.stale = false
	sr.lastAppend = now
	if n := len(sr.pts); n > 0 && !sr.pts[n-1].T.Before(now) {
		sr.pts[n-1] = Point{T: now, V: v} // same round appended twice: keep latest
	} else {
		sr.pts = append(sr.pts, Point{T: now, V: v})
		db.points++
	}
	cutoff := now.Add(-db.retention())
	k := 0
	for k < len(sr.pts) && sr.pts[k].T.Before(cutoff) {
		k++
	}
	if k > 0 {
		n := copy(sr.pts, sr.pts[k:])
		sr.pts = sr.pts[:n]
	}
}

// MarkStale flags every series carrying all the given label key/value pairs
// (e.g. "job", "ctlogd", "instance", "127.0.0.1:9001") as stale: instant
// queries stop returning them until a fresh append revives them, while
// range queries keep serving their remaining history.
func (db *TSDB) MarkStale(kv ...string) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	n := 0
	for _, fam := range db.byName {
		for _, sr := range fam {
			if sr.stale || !hasPairs(sr.pairs, kv) {
				continue
			}
			sr.stale = true
			n++
		}
	}
	return n
}

func hasPairs(pairs, want []string) bool {
	for i := 0; i+1 < len(want); i += 2 {
		v, ok := pairValue(pairs, want[i])
		if !ok || v != want[i+1] {
			return false
		}
	}
	return true
}

func pairValue(pairs []string, key string) (string, bool) {
	for i := 0; i+1 < len(pairs); i += 2 {
		if pairs[i] == key {
			return pairs[i+1], true
		}
	}
	return "", false
}

// Prune drops series whose newest point has aged out of retention entirely,
// reclaiming their slots under MaxSeries. Returns the number removed.
func (db *TSDB) Prune(now time.Time) int {
	cutoff := now.Add(-db.retention())
	db.mu.Lock()
	defer db.mu.Unlock()
	removed := 0
	for name, fam := range db.byName {
		for labels, sr := range fam {
			if len(sr.pts) == 0 || sr.pts[len(sr.pts)-1].T.Before(cutoff) {
				delete(fam, labels)
				db.total--
				removed++
			}
		}
		if len(fam) == 0 {
			delete(db.byName, name)
		}
	}
	return removed
}

// SeriesCount returns the number of live series.
func (db *TSDB) SeriesCount() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.total
}

// PointCount returns the cumulative number of points ever appended.
func (db *TSDB) PointCount() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.points
}

// DroppedSeries returns the cumulative number of appends refused by the
// MaxSeries cap (or by malformed label sets).
func (db *TSDB) DroppedSeries() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.dropped
}

// MatchOp is a label-matcher operator.
type MatchOp uint8

// Label matcher operators: equality, inequality, anchored-regex match and
// its negation.
const (
	MatchEq MatchOp = iota
	MatchNe
	MatchRe
	MatchNre
)

// Matcher is one label constraint in a series selector.
type Matcher struct {
	Key   string
	Op    MatchOp
	Value string
	re    *regexp.Regexp
}

// NewMatcher builds a matcher, compiling (and fully anchoring) the regex
// for the =~ / !~ operators.
func NewMatcher(key string, op MatchOp, value string) (Matcher, error) {
	m := Matcher{Key: key, Op: op, Value: value}
	if op == MatchRe || op == MatchNre {
		re, err := regexp.Compile("^(?:" + value + ")$")
		if err != nil {
			return m, fmt.Errorf("obsagg: bad label regex %q: %w", value, err)
		}
		m.re = re
	}
	return m, nil
}

// Matches reports whether one label value satisfies the matcher.
func (m Matcher) Matches(v string) bool {
	switch m.Op {
	case MatchEq:
		return v == m.Value
	case MatchNe:
		return v != m.Value
	case MatchRe:
		return m.re.MatchString(v)
	case MatchNre:
		return !m.re.MatchString(v)
	}
	return false
}

func matchSeries(sr *tsSeries, ms []Matcher) bool {
	for _, m := range ms {
		v, _ := pairValue(sr.pairs, m.Key)
		if !m.Matches(v) {
			return false
		}
	}
	return true
}

// SeriesData is one series' slice of a selection: its identity plus the
// points inside the queried window (instant selections carry exactly one).
type SeriesData struct {
	Name     string
	Labels   string
	Pairs    []string
	Kind     obs.Kind
	Points   []Point
	Exemplar *obs.Exemplar
}

// Latest answers an instant selection: for every live series of the family
// matching ms, the newest point no older than the lookback window at time
// at. Stale series (vanished targets) and series silent past StaleAfter are
// excluded — their history remains visible to Select.
func (db *TSDB) Latest(name string, ms []Matcher, at time.Time) []SeriesData {
	oldest := at.Add(-min(tsdbLookback, db.retention(), db.staleAfter()))
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []SeriesData
	for _, sr := range db.byName[name] {
		if sr.stale || !matchSeries(sr, ms) {
			continue
		}
		p, ok := newestAt(sr.pts, at)
		if !ok || p.T.Before(oldest) {
			continue
		}
		out = append(out, SeriesData{Name: sr.name, Labels: sr.labels, Pairs: sr.pairs,
			Kind: sr.kind, Points: []Point{p}, Exemplar: sr.exemplar})
	}
	sortSeriesData(out)
	return out
}

// newestAt returns the newest point at or before the query time.
func newestAt(pts []Point, at time.Time) (Point, bool) {
	i := sort.Search(len(pts), func(i int) bool { return pts[i].T.After(at) })
	if i == 0 {
		return Point{}, false
	}
	return pts[i-1], true
}

// Select answers a range selection: every matching series' points in
// [from, to], stale or not — history is history until retention evicts it.
func (db *TSDB) Select(name string, ms []Matcher, from, to time.Time) []SeriesData {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []SeriesData
	for _, sr := range db.byName[name] {
		if !matchSeries(sr, ms) {
			continue
		}
		lo := sort.Search(len(sr.pts), func(i int) bool { return !sr.pts[i].T.Before(from) })
		hi := sort.Search(len(sr.pts), func(i int) bool { return sr.pts[i].T.After(to) })
		if lo == hi {
			continue
		}
		pts := make([]Point, hi-lo)
		copy(pts, sr.pts[lo:hi])
		out = append(out, SeriesData{Name: sr.name, Labels: sr.labels, Pairs: sr.pairs,
			Kind: sr.kind, Points: pts, Exemplar: sr.exemplar})
	}
	sortSeriesData(out)
	return out
}

func sortSeriesData(s []SeriesData) {
	sort.Slice(s, func(i, j int) bool { return s[i].Labels < s[j].Labels })
}
