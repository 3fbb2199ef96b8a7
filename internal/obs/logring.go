package obs

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file implements the per-daemon log ring: a slog.Handler tee that keeps
// writing stderr exactly as before while also appending every record —
// structured, with the trace/span IDs already flowing through request
// contexts — into a bounded in-memory ring. The ring is queryable on every
// debug listener (GET /v1/logs with level/trace/since/substring filters), the
// process log level is flippable live (GET/PUT /v1/loglevel backed by a
// slog.LevelVar), and the ring can be snapshotted to disk as JSONL — the
// crash/alert black-box the profile capture set embeds. cmd/obsagg federates
// per-daemon rings into /fleet/logs (fleetlog.go).

// LogRecord is one structured log line as stored in a ring and served over
// the wire. Seq is a per-process monotonic sequence number (the federation
// dedup key); Job and Instance are empty in per-daemon rings and filled in by
// the aggregator.
type LogRecord struct {
	Seq      uint64            `json:"seq"`
	Time     time.Time         `json:"time"`
	Level    string            `json:"level"` // slog notation: DEBUG, INFO, WARN, ERROR
	Service  string            `json:"service,omitempty"`
	Msg      string            `json:"msg"`
	TraceID  string            `json:"trace_id,omitempty"`
	SpanID   string            `json:"span_id,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Job      string            `json:"job,omitempty"`
	Instance string            `json:"instance,omitempty"`
}

// ParseLogLevel parses a level name in any case ("debug", "WARN",
// "warning", also slog offset notation like "INFO+2") into a slog.Level:
// the one parser behind -log-level, PUT /v1/loglevel and ?level=. An
// unknown name is an error, with slog.LevelInfo.
func ParseLogLevel(s string) (slog.Level, error) {
	var lv slog.Level
	name := strings.TrimSpace(s)
	if strings.EqualFold(name, "warning") {
		name = "warn"
	}
	if err := lv.UnmarshalText([]byte(name)); err != nil {
		return 0, fmt.Errorf("obs: bad log level %q", s)
	}
	return lv, nil
}

// LogFilter selects records in LogRing.Query and the fleet log view.
type LogFilter struct {
	// MinLevel keeps records at or above this level when LevelSet is true.
	MinLevel slog.Level
	LevelSet bool
	// TraceID keeps only records correlated to this trace.
	TraceID string
	// Since keeps only records strictly after this time.
	Since time.Time
	// Q keeps records whose message or rendered attrs contain this substring
	// (case-insensitive).
	Q string
	// Limit keeps only the newest N matches (0 = all).
	Limit int
	// Job/Instance filter federated records (empty matches everything; only
	// meaningful on the fleet view).
	Job      string
	Instance string
}

// Matches reports whether one record passes the filter (Limit excluded —
// callers trim after collecting).
func (f LogFilter) Matches(rec LogRecord) bool {
	if f.LevelSet {
		lv, err := ParseLogLevel(rec.Level)
		if err != nil || lv < f.MinLevel {
			return false
		}
	}
	if f.TraceID != "" && rec.TraceID != f.TraceID {
		return false
	}
	if !f.Since.IsZero() && !rec.Time.After(f.Since) {
		return false
	}
	if f.Job != "" && rec.Job != f.Job {
		return false
	}
	if f.Instance != "" && rec.Instance != f.Instance {
		return false
	}
	if f.Q != "" {
		q := strings.ToLower(f.Q)
		hit := strings.Contains(strings.ToLower(rec.Msg), q)
		for k, v := range rec.Attrs {
			if hit {
				break
			}
			hit = strings.Contains(strings.ToLower(k), q) || strings.Contains(strings.ToLower(v), q)
		}
		if !hit {
			return false
		}
	}
	return true
}

// ParseLogFilter decodes the shared log query parameters (?level=, ?trace=,
// ?since=, ?q=, ?limit=, plus ?job=/?instance= on the fleet view). ?since=
// accepts an RFC3339(Nano) timestamp or a Go duration meaning "the last D".
func ParseLogFilter(r *http.Request) (LogFilter, error) {
	f := LogFilter{
		TraceID:  r.URL.Query().Get("trace"),
		Q:        r.URL.Query().Get("q"),
		Job:      r.URL.Query().Get("job"),
		Instance: r.URL.Query().Get("instance"),
	}
	if v := r.URL.Query().Get("level"); v != "" {
		lv, err := ParseLogLevel(v)
		if err != nil {
			return f, err
		}
		f.MinLevel, f.LevelSet = lv, true
	}
	if v := r.URL.Query().Get("since"); v != "" {
		if ts, err := time.Parse(time.RFC3339Nano, v); err == nil {
			f.Since = ts
		} else if d, derr := time.ParseDuration(v); derr == nil && d > 0 {
			f.Since = time.Now().Add(-d)
		} else {
			return f, fmt.Errorf("bad since %q (want RFC3339 or duration)", v)
		}
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

// LogRing is a bounded lock-protected ring of structured log records. Append
// evicts oldest-first at capacity; Query returns matching records oldest
// first. Safe for concurrent use.
type LogRing struct {
	// Registry receives log_records_total{service,level} (nil: Default()).
	Registry *Registry

	mu   sync.Mutex
	buf  []LogRecord
	next int // next write slot
	size int
	seq  uint64
}

// logBuffer is the process log ring's capacity.
const logBuffer = 1024

// NewLogRing builds a ring retaining at most capacity records (<= 0 uses
// logBuffer).
func NewLogRing(capacity int) *LogRing {
	if capacity <= 0 {
		capacity = logBuffer
	}
	return &LogRing{buf: make([]LogRecord, capacity)}
}

func (r *LogRing) reg() *Registry { return cmp.Or(r.Registry, Default()) }

// Append stores one record, assigning its sequence number and evicting the
// oldest record at capacity, and counts it in log_records_total.
func (r *LogRing) Append(rec LogRecord) {
	r.reg().Counter("log_records_total",
		"service", rec.Service, "level", levelLabel(rec.Level)).Inc()
	r.mu.Lock()
	r.seq++
	rec.Seq = r.seq
	r.buf[r.next] = rec
	r.next = (r.next + 1) % len(r.buf)
	if r.size < len(r.buf) {
		r.size++
	}
	r.mu.Unlock()
}

// levelLabel is a record's level in lower case, the log_records_total label:
// slog's four names without an allocation, anything else through ToLower.
func levelLabel(level string) string {
	switch level {
	case "DEBUG":
		return "debug"
	case "INFO":
		return "info"
	case "WARN":
		return "warn"
	case "ERROR":
		return "error"
	}
	return strings.ToLower(level)
}

// Query returns matching records oldest-first; Limit keeps the newest N.
func (r *LogRing) Query(f LogFilter) []LogRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]LogRecord, 0, r.size)
	start := r.next - r.size
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.size; i++ {
		rec := r.buf[(start+i)%len(r.buf)]
		if f.Matches(rec) {
			out = append(out, rec)
		}
	}
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}

// Len reports the number of retained records.
func (r *LogRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.size
}

// WriteJSONL writes the ring's full contents oldest-first, one JSON record
// per line — the black-box snapshot format.
func (r *LogRing) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rec := range r.Query(LogFilter{}) {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SnapshotFile atomically writes the ring as JSONL to path.
func (r *LogRing) SnapshotFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("obs: log snapshot: %w", err)
	}
	err = r.WriteJSONL(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("obs: log snapshot: %w", err)
	}
	return nil
}

// ReadSnapshotFile decodes a JSONL log snapshot (the SnapshotFile format)
// from disk.
func ReadSnapshotFile(path string) ([]LogRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var out []LogRecord
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec LogRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("obs: bad log snapshot line: %w", err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// LogSnapshotName is the black-box file a profile capture set embeds next to
// its pprof files.
const LogSnapshotName = "logs.jsonl"

// SnapshotDir writes the ring into dir as LogSnapshotName.
func (r *LogRing) SnapshotDir(dir string) error {
	return r.SnapshotFile(filepath.Join(dir, LogSnapshotName))
}

// defaultLogRing is the process-wide ring SetupLogger's tee feeds, serving
// /v1/logs; it exists before Setup runs, so logging is ring-buffered from
// the first record.
var defaultLogRing = NewLogRing(logBuffer)

// logLevel is the process-wide level gate shared by the stderr handler and
// the ring tee; PUT /v1/loglevel retargets it live.
var logLevel slog.LevelVar

// SetLogLevel flips the process log level at runtime.
func SetLogLevel(lv slog.Level) { logLevel.Set(lv) }

// LogLevel reports the current process log level.
func LogLevel() slog.Level { return logLevel.Level() }

// teeHandler forwards records to the stderr handler unchanged while also
// appending a structured copy to the log ring (nil: the process ring).
type teeHandler struct {
	inner  slog.Handler
	ring   *LogRing
	attrs  []slog.Attr // pre-flattened WithAttrs chain (group-qualified keys)
	groups []string
	// text is inner's sink when inner is SetupLogger's text handler and there
	// are no attrs or groups: Middleware then writes its line (logAccess).
	text *lockedWriter
}

// NewTeeHandler wraps inner so every handled record is also appended to ring
// (nil ring: the process ring).
func NewTeeHandler(inner slog.Handler, ring *LogRing) slog.Handler {
	return &teeHandler{inner: inner, ring: ring}
}

func (h *teeHandler) Enabled(ctx context.Context, lvl slog.Level) bool {
	return h.inner.Enabled(ctx, lvl)
}

func (h *teeHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	flat := append([]slog.Attr(nil), h.attrs...)
	prefix := strings.Join(h.groups, ".")
	for _, a := range attrs {
		walkAttr(prefix, a, func(key string, v slog.Value) {
			flat = append(flat, slog.Attr{Key: key, Value: v})
		})
	}
	return &teeHandler{inner: h.inner.WithAttrs(attrs), ring: h.ring,
		attrs: flat, groups: h.groups}
}

func (h *teeHandler) WithGroup(name string) slog.Handler {
	if name == "" {
		return h
	}
	groups := append(append([]string(nil), h.groups...), name)
	return &teeHandler{inner: h.inner.WithGroup(name), ring: h.ring,
		attrs: h.attrs, groups: groups}
}

// walkAttr calls leaf for a, or when a is a group for each attr inside it,
// with the key qualified by the dotted prefix.
func walkAttr(prefix string, a slog.Attr, leaf func(key string, v slog.Value)) {
	a.Value = a.Value.Resolve()
	key := a.Key
	if prefix != "" {
		key = prefix + "." + key
	}
	if a.Value.Kind() == slog.KindGroup {
		for _, ga := range a.Value.Group() {
			walkAttr(key, ga, leaf)
		}
		return
	}
	leaf(key, a.Value)
}

func (h *teeHandler) Handle(ctx context.Context, rec slog.Record) error {
	lr := LogRecord{
		Time:  rec.Time,
		Level: rec.Level.String(),
		Msg:   rec.Message,
	}
	if lr.Time.IsZero() {
		lr.Time = time.Now()
	}
	if id, ok := RequestIDFromContext(ctx); ok {
		lr.TraceID = id.Trace()
		lr.SpanID = id.Span()
	}
	if n := len(h.attrs) + rec.NumAttrs(); n > 0 {
		lr.Attrs = make(map[string]string, n)
		set := func(key string, val slog.Value) {
			v := val.String()
			switch key {
			case "component", "service":
				if lr.Service == "" {
					lr.Service = v
				}
			case "request_id", "trace_id":
				// The middleware/transport access logs carry the trace ID
				// as an attr; promote it so ?trace= filtering works for
				// records logged without a request context.
				if lr.TraceID == "" {
					lr.TraceID = v
				}
			}
			lr.Attrs[key] = v
		}
		for _, a := range h.attrs {
			set(a.Key, a.Value)
		}
		prefix := strings.Join(h.groups, ".")
		rec.Attrs(func(a slog.Attr) bool {
			walkAttr(prefix, a, set)
			return true
		})
	}
	cmp.Or(h.ring, defaultLogRing).Append(lr)
	return h.inner.Handle(ctx, rec)
}

// serveLogs answers GET /v1/logs for one ring.
func serveLogs(ring *LogRing, w http.ResponseWriter, r *http.Request) {
	f, err := ParseLogFilter(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	WriteLogJSON(w, ring.Query(f))
}

// WriteLogJSON answers a log query with the records as one compact JSON
// array ([] rather than null when empty), the /v1/logs and /fleet/logs body.
func WriteLogJSON(w http.ResponseWriter, recs []LogRecord) {
	if recs == nil {
		recs = []LogRecord{}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(recs)
}

// Handler serves one ring's query surface (GET /v1/logs) — tests and fleet
// simulations mount private rings; the process-wide ring is mounted on every
// debug listener automatically.
func (r *LogRing) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/logs", func(w http.ResponseWriter, req *http.Request) {
		serveLogs(r, w, req)
	})
	return mux
}

// serveLogLevel answers GET/PUT /v1/loglevel: GET reports the live level,
// PUT (?level= or a plain/JSON body) retargets the process-wide LevelVar so
// an operator can flip a running daemon to debug without a restart.
func serveLogLevel(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPut {
		v := r.URL.Query().Get("level")
		if v == "" {
			body, err := io.ReadAll(io.LimitReader(r.Body, 256))
			if err != nil {
				http.Error(w, "bad body", http.StatusBadRequest)
				return
			}
			v = strings.TrimSpace(string(body))
			var parsed struct {
				Level string `json:"level"`
			}
			if json.Unmarshal(body, &parsed) == nil && parsed.Level != "" {
				v = parsed.Level
			}
		}
		lv, err := ParseLogLevel(v)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		SetLogLevel(lv)
		slog.Info("log level changed", "level", lv.String())
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w, "{\"level\":%q}\n", LogLevel().String())
}

func init() {
	// Every debug listener serves the process-wide ring and level control.
	RegisterDebug("GET /v1/logs", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serveLogs(defaultLogRing, w, r)
	}))
	RegisterDebug("GET /v1/loglevel", http.HandlerFunc(serveLogLevel))
	RegisterDebug("PUT /v1/loglevel", http.HandlerFunc(serveLogLevel))
}
