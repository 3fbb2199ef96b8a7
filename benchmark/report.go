package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricValue is one measured number. Samples is how many observations
// stand behind it (for a percentile: how many lie beyond it).
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// report is the result of one workload in one mode.
type report struct {
	Workload   string                 `json:"workload"`
	Seed       uint64                 `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Traced     bool                   `json:"traced"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	ErrorRatio float64                `json:"error_ratio"`
	Metrics    map[string]metricValue `json:"metrics"`
	Notes      []string               `json:"notes,omitempty"`
	Violations []string               `json:"violations,omitempty"`

	round int // when set, notes and violations say which round they are about
}

func newReport(workload string, seed uint64, d time.Duration, traced bool) *report {
	return &report{Workload: workload, Seed: seed, Seconds: d.Seconds(), Traced: traced,
		Correct: true, Metrics: make(map[string]metricValue)}
}

func (r *report) set(name string, v float64, unit string, samples int) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit, Samples: samples}
}

func (r *report) prefixed(format string, args ...any) string {
	msg := fmt.Sprintf(format, args...)
	if r.round > 0 {
		msg = fmt.Sprintf("round %d: %s", r.round, msg)
	}
	return msg
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, r.prefixed(format, args...))
}

// violate records a failed correctness check; the command then exits
// non-zero.
func (r *report) violate(format string, args ...any) {
	r.Correct = false
	r.Violations = append(r.Violations, r.prefixed(format, args...))
}

// count sets the operation totals. error_ratio is failed/attempted; it is
// not a bounded metric because its healthy value is exactly 0, so any
// failed operation fails the run instead.
func (r *report) count(attempted, failed int) {
	r.Attempted, r.Failed = attempted, failed
	if attempted > 0 {
		r.ErrorRatio = float64(failed) / float64(attempted)
	}
	if failed > 0 {
		r.violate("%d of %d operations failed", failed, attempted)
	}
}

// print writes every metric by name with its unit, one per line, then the
// notes and violations.
func (r *report) print(w io.Writer) {
	mode := "end-to-end"
	if r.Traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s seed %d, %gs window, %s\n", r.Workload, r.Seed, r.Seconds, mode)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-40s %14.4f %-8s (n=%d)\n", n, m.Value, m.Unit, m.Samples)
	}
	fmt.Fprintf(w, "%-40s %14.6f %-8s (%d of %d)\n", "error_ratio", r.ErrorRatio, "ratio", r.Failed, r.Attempted)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "VIOLATION: %s\n", v)
	}
}

// write stores the report as JSON in dir and returns the path.
func (r *report) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	kind := "e2e"
	if r.Traced {
		kind = "layers"
	}
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	// Repeated runs of one seed sit side by side (_r1, _r2, …): compare
	// reads a directory as a set of runs.
	for k := 1; ; k++ {
		path := filepath.Join(dir, fmt.Sprintf("%s_%s_seed%d_r%d.json", kind, r.Workload, r.Seed, k))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, fs.ErrExist) {
			continue
		}
		if err != nil {
			return "", err
		}
		_, err = f.Write(append(raw, '\n'))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return path, err
	}
}

// contractLine is the single JSON object the driver reads from the last
// line of standard output: exactly the declared metrics of the mode, each
// with its value and unit.
func (r *report) contractLine(declared []metricSpec) (string, error) {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, make(map[string]vu, len(declared))}
	for _, d := range declared {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was declared but not measured", d.Name)
		}
		out.Metrics[d.Name] = vu{m.Value, d.Unit}
	}
	raw, err := json.Marshal(out)
	return string(raw), err
}
