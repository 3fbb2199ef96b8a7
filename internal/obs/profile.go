package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements triggered profiling: ProfileCapture snapshots
// CPU/heap/goroutine pprof profiles into a bounded on-disk ring when an SLO
// burn-rate alert fires or an operator POSTs /v1/profile, and serves the
// ring at GET /v1/profiles — a p99 regression caught under load comes with
// the profile that explains it instead of a "reproduce locally" chase.

// ProfileEntry describes one captured profile set.
type ProfileEntry struct {
	// ID is the ring-directory name, e.g. "p000003-slo-latency-page".
	ID string `json:"id"`
	// Reason records what triggered the capture.
	Reason string `json:"reason"`
	// CapturedAt is the capture start time.
	CapturedAt time.Time `json:"captured_at"`
	// Files lists the profile files in the entry (cpu.pprof, heap.pprof,
	// goroutine.pprof).
	Files []string `json:"files"`
}

// ProfileCapture writes triggered pprof snapshots into a directory ring of
// profileRing entries. Captures serialise on an internal mutex (the runtime
// allows one CPU profile at a time) and automatic triggers are rate-limited
// by profileCooldown so a flapping alert cannot fill the disk. Each capture
// set also embeds a black-box snapshot of the log ring (logs.jsonl) — the
// alert or panic that triggered the capture ships with the log lines that
// preceded it.
type ProfileCapture struct {
	// Dir is the ring directory (created on first capture).
	Dir string
	// CPUDuration is the CPU profile length (default 2s).
	CPUDuration time.Duration
	// Logger receives capture outcomes (nil: slog.Default()).
	Logger *slog.Logger
	// Logs is the ring snapshotted into each capture set (nil: the process
	// ring).
	Logs *LogRing

	mu        sync.Mutex
	seq       int
	lastAuto  time.Time
	capturing bool
}

// profileRing bounds the retained capture sets, and profileCooldown is the
// minimum gap between TriggerAsync captures.
const (
	profileRing     = 16
	profileCooldown = time.Minute
)

// The process-wide capture target the Middleware panic path triggers;
// Flags.Setup points it at the -profile-dir ring (nil when disabled).
var defaultCapture atomic.Pointer[ProfileCapture]

// SetDefaultCapture installs (or, with nil, clears) the capture set that
// crash black-boxes are written through.
func SetDefaultCapture(c *ProfileCapture) { defaultCapture.Store(c) }

// DefaultCapture returns the process-wide capture target, or nil.
func DefaultCapture() *ProfileCapture { return defaultCapture.Load() }

func (p *ProfileCapture) logger() *slog.Logger { return cmp.Or(p.Logger, slog.Default()) }

func (p *ProfileCapture) cpuDuration() time.Duration {
	if p.CPUDuration > 0 {
		return p.CPUDuration
	}
	return 2 * time.Second
}

// safeReason keeps trigger reasons usable as directory-name components.
func safeReason(reason string) string {
	var b strings.Builder
	for _, r := range reason {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	s := strings.Trim(b.String(), "-")
	if s == "" {
		return "manual"
	}
	if len(s) > 48 {
		s = s[:48]
	}
	return s
}

// Capture synchronously snapshots CPU (for CPUDuration), heap and goroutine
// profiles into a fresh ring entry and prunes the ring to profileRing entries. Concurrent
// calls coalesce: a capture already in flight makes Capture return an error
// immediately rather than queue behind the CPU profiler.
func (p *ProfileCapture) Capture(reason string) (ProfileEntry, error) {
	p.mu.Lock()
	if p.capturing {
		p.mu.Unlock()
		return ProfileEntry{}, fmt.Errorf("obs: profile capture already in flight")
	}
	p.capturing = true
	p.seq++
	seq := p.seq
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.capturing = false
		p.mu.Unlock()
	}()

	entry := ProfileEntry{
		ID:         fmt.Sprintf("p%06d-%s", seq, safeReason(reason)),
		Reason:     reason,
		CapturedAt: time.Now().UTC(),
	}
	dir := filepath.Join(p.Dir, entry.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ProfileEntry{}, fmt.Errorf("obs: profile dir: %w", err)
	}

	// CPU first: it needs wall time; heap/goroutine are instant snapshots
	// taken right after, so the three describe the same incident window.
	cpuPath := filepath.Join(dir, "cpu.pprof")
	cpuFile, err := os.Create(cpuPath)
	if err != nil {
		return ProfileEntry{}, fmt.Errorf("obs: create cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(cpuFile); err != nil {
		cpuFile.Close()
		// Another subsystem (e.g. /debug/pprof/profile) holds the CPU
		// profiler; capture the instant profiles anyway.
		os.Remove(cpuPath)
		p.logger().Warn("cpu profile unavailable, capturing heap/goroutine only", "err", err)
	} else {
		time.Sleep(p.cpuDuration())
		pprof.StopCPUProfile()
		cpuFile.Close()
		entry.Files = append(entry.Files, "cpu.pprof")
	}

	for _, prof := range []string{"heap", "goroutine"} {
		f, err := os.Create(filepath.Join(dir, prof+".pprof"))
		if err != nil {
			return ProfileEntry{}, fmt.Errorf("obs: create %s profile: %w", prof, err)
		}
		err = pprof.Lookup(prof).WriteTo(f, 0)
		f.Close()
		if err != nil {
			return ProfileEntry{}, fmt.Errorf("obs: write %s profile: %w", prof, err)
		}
		entry.Files = append(entry.Files, prof+".pprof")
	}

	// Black box: the log lines leading up to whatever triggered this capture,
	// snapshotted next to the profiles they explain.
	if err := cmp.Or(p.Logs, defaultLogRing).SnapshotDir(dir); err != nil {
		p.logger().Warn("log black-box snapshot failed", "err", err)
	} else {
		entry.Files = append(entry.Files, LogSnapshotName)
	}

	meta, err := json.MarshalIndent(entry, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, "meta.json"), append(meta, '\n'), 0o644)
	}
	if err != nil {
		return ProfileEntry{}, fmt.Errorf("obs: write profile meta: %w", err)
	}
	p.prune()
	p.logger().Info("profile captured", "id", entry.ID, "reason", reason,
		"files", strings.Join(entry.Files, ","))
	return entry, nil
}

// TriggerAsync starts a capture in the background unless one ran within
// profileCooldown — the alert-hook entry point, safe to call from an SLO
// evaluation tick. Explicit Capture calls ignore the cooldown.
func (p *ProfileCapture) TriggerAsync(reason string) {
	p.mu.Lock()
	if time.Since(p.lastAuto) < profileCooldown {
		p.mu.Unlock()
		return
	}
	p.lastAuto = time.Now()
	p.mu.Unlock()
	go func() {
		if _, err := p.Capture(reason); err != nil {
			p.logger().Warn("triggered profile capture failed", "reason", reason, "err", err)
		}
	}()
}

// prune deletes the oldest ring entries beyond profileRing.
func (p *ProfileCapture) prune() {
	entries := p.List()
	for len(entries) > profileRing {
		oldest := entries[0]
		_ = os.RemoveAll(filepath.Join(p.Dir, oldest.ID))
		entries = entries[1:]
	}
}

// List returns the ring's entries, oldest first. The listing is read from
// disk so it survives restarts.
func (p *ProfileCapture) List() []ProfileEntry {
	dirs, err := os.ReadDir(p.Dir)
	if err != nil {
		return nil
	}
	var out []ProfileEntry
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(p.Dir, d.Name(), "meta.json"))
		if err != nil {
			continue
		}
		var e ProfileEntry
		if json.Unmarshal(data, &e) != nil || e.ID != d.Name() {
			continue
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	// Resuming after a restart must not reuse sequence numbers of surviving
	// entries.
	if len(out) > 0 {
		last := out[len(out)-1].ID
		var seq int
		if _, err := fmt.Sscanf(last, "p%06d", &seq); err == nil {
			p.mu.Lock()
			p.seq = max(p.seq, seq)
			p.mu.Unlock()
		}
	}
	return out
}

// Handler serves the capture surface:
//
//	POST /v1/profile                 trigger a synchronous capture
//	                                 (?reason=... names the entry)
//	GET  /v1/profiles                list ring entries (JSON, oldest first)
//	GET  /v1/profiles/{id}/{file}    download one profile file
func (p *ProfileCapture) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/profile", func(w http.ResponseWriter, r *http.Request) {
		reason := r.URL.Query().Get("reason")
		if reason == "" {
			reason = "manual"
		}
		entry, err := p.Capture(reason)
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = json.NewEncoder(w).Encode(entry)
	})
	mux.HandleFunc("GET /v1/profiles", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		entries := p.List()
		if entries == nil {
			entries = []ProfileEntry{}
		}
		_ = json.NewEncoder(w).Encode(entries)
	})
	mux.HandleFunc("GET /v1/profiles/{id}/{file}", func(w http.ResponseWriter, r *http.Request) {
		id, file := r.PathValue("id"), r.PathValue("file")
		// The ring only ever contains names shaped like safeReason output;
		// reject anything that could escape the directory.
		if id != filepath.Base(id) || file != filepath.Base(file) ||
			strings.HasPrefix(id, ".") || strings.HasPrefix(file, ".") {
			http.Error(w, "bad profile path", http.StatusBadRequest)
			return
		}
		http.ServeFile(w, r, filepath.Join(p.Dir, id, file))
	})
	return mux
}
