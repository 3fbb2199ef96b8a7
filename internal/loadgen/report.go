package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"time"
)

// BenchSchemaVersion identifies the BENCH_*.json layout; bump it on any
// incompatible change so trajectory tooling can refuse to mix shapes.
const BenchSchemaVersion = 1

// LatencySummary is the quantile digest recorded per endpoint, in
// milliseconds (floats survive JSON without unit ambiguity at this scale).
type LatencySummary struct {
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
	MeanMs float64 `json:"mean_ms"`
}

// EndpointReport is one operation's slice of a bench run.
type EndpointReport struct {
	Requests  uint64         `json:"requests"`
	Errors    uint64         `json:"errors"`
	ErrorRate float64        `json:"error_rate"`
	Bytes     int64          `json:"bytes"`
	QPS       float64        `json:"qps"`
	Latency   LatencySummary `json:"latency"`
}

// BenchConfig records the knobs that produced a run — two BENCH files are
// comparable only when their configs match.
type BenchConfig struct {
	Mode      string  `json:"mode"`
	TargetQPS float64 `json:"target_qps"`
	Workers   int     `json:"workers"`
	DurationS float64 `json:"duration_s"`
	Seed      uint64  `json:"seed"`
	ZipfS     float64 `json:"zipf_s"`
	ZipfN     int     `json:"zipf_n"`
	Mix       string  `json:"mix"`
	// Gateway/Shards record the target topology when the run went through a
	// stalegw fleet rather than a single staleapid. Both are additive,
	// omitempty fields: schema v1 files written before sharding existed
	// still parse, and direct single-daemon runs keep byte-identical
	// configs. A gateway point and a direct point are NOT comparable.
	Gateway bool `json:"gateway,omitempty"`
	Shards  int  `json:"shards,omitempty"`
	// Replicas records replicas per slice for a replicated gateway fleet
	// (0/absent = unreplicated or pre-replication file). Additive like
	// Gateway/Shards; a 2x1 and a 2x2 point are NOT comparable.
	Replicas int `json:"replicas,omitempty"`
}

// ServerSide is the target's own view of the run: deltas of its /metrics
// counters scraped immediately before and after the measured window. The
// client-side numbers include queueing and the network; these do not — the
// gap between the two p99s is where the time went. Server quantiles come
// from histogram bucket deltas, so they carry bucket resolution, not sample
// resolution.
type ServerSide struct {
	Requests uint64  `json:"requests"`
	Errors   uint64  `json:"errors"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

// BenchReport is the BENCH_<scenario>_<git-sha>.json document: one point on
// the repo's performance trajectory.
type BenchReport struct {
	SchemaVersion int                       `json:"schema_version"`
	Scenario      string                    `json:"scenario"`
	GitSHA        string                    `json:"git_sha"`
	Timestamp     time.Time                 `json:"timestamp"`
	Config        BenchConfig               `json:"config"`
	Totals        EndpointReport            `json:"totals"`
	Endpoints     map[string]EndpointReport `json:"endpoints"`
	// MeasuredS is the post-warm-up window the requests and every qps above
	// cover (0 in files written before it existed, whose qps divide the
	// post-warm-up count by the whole run: 180 for 200 offered at -warmup 0.1).
	MeasuredS float64 `json:"measured_s"`
	// Dropped counts open-loop tickets never dispatched (generator
	// overload); a comparable run has 0.
	Dropped uint64 `json:"dropped"`
	// Server holds the target-side metric deltas when the run was driven
	// with -target-metrics. Additive, omitempty on schema v1: files written
	// before it existed still parse, and runs without the flag keep
	// byte-identical reports.
	Server *ServerSide `json:"server,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func summarize(st *OpStats, measured time.Duration) EndpointReport {
	rep := EndpointReport{
		Requests: st.Count,
		Errors:   st.Errors,
		Bytes:    st.Bytes,
		Latency: LatencySummary{
			P50Ms:  ms(st.Latency.Quantile(0.50)),
			P90Ms:  ms(st.Latency.Quantile(0.90)),
			P99Ms:  ms(st.Latency.Quantile(0.99)),
			P999Ms: ms(st.Latency.Quantile(0.999)),
			MaxMs:  ms(st.Latency.Max()),
			MeanMs: ms(st.Latency.Mean()),
		},
	}
	if st.Count > 0 {
		rep.ErrorRate = float64(st.Errors) / float64(st.Count)
	}
	if measured > 0 {
		rep.QPS = float64(st.Count) / measured.Seconds()
	}
	return rep
}

// BuildReport digests a finished run into the BENCH document.
func BuildReport(res *Result, scenario, gitSHA, mix string, zipfS float64, zipfN int) *BenchReport {
	rep := &BenchReport{
		SchemaVersion: BenchSchemaVersion,
		Scenario:      scenario,
		GitSHA:        gitSHA,
		Timestamp:     res.Began.UTC(),
		Config: BenchConfig{
			Mode:      string(res.Config.Mode),
			TargetQPS: res.Config.QPS,
			Workers:   res.Config.Workers,
			DurationS: res.Config.Duration.Seconds(),
			Seed:      res.Config.Seed,
			ZipfS:     zipfS,
			ZipfN:     zipfN,
			Mix:       mix,
		},
		Totals:    summarize(res.Total, res.Measured),
		Endpoints: make(map[string]EndpointReport, len(res.PerOp)),
		MeasuredS: res.Measured.Seconds(),
		Dropped:   res.Dropped,
	}
	for name, st := range res.PerOp {
		rep.Endpoints[name] = summarize(st, res.Measured)
	}
	return rep
}

var benchNameSafe = regexp.MustCompile(`[^a-zA-Z0-9.-]+`)

// BenchFileName renders the canonical trajectory file name for a scenario
// and git SHA: BENCH_<scenario>_<sha>.json.
func BenchFileName(scenario, gitSHA string) string {
	clean := func(s, fallback string) string {
		s = benchNameSafe.ReplaceAllString(s, "-")
		if s == "" {
			return fallback
		}
		return s
	}
	return fmt.Sprintf("BENCH_%s_%s.json", clean(scenario, "run"), clean(gitSHA, "dev"))
}

// WriteReport writes the report to dir under its canonical name and returns
// the path.
func (r *BenchReport) WriteReport(dir string) (string, error) {
	if err := r.Validate(); err != nil {
		return "", err
	}
	path := filepath.Join(dir, BenchFileName(r.Scenario, r.GitSHA))
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("loadgen: marshal bench report: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("loadgen: write bench report: %w", err)
	}
	return path, nil
}

// Validate checks the report is a well-formed trajectory point.
func (r *BenchReport) Validate() error {
	switch {
	case r.SchemaVersion != BenchSchemaVersion:
		return fmt.Errorf("loadgen: bench schema version %d (want %d)", r.SchemaVersion, BenchSchemaVersion)
	case r.Scenario == "":
		return fmt.Errorf("loadgen: bench report without scenario")
	case r.GitSHA == "":
		return fmt.Errorf("loadgen: bench report without git SHA")
	case r.Timestamp.IsZero():
		return fmt.Errorf("loadgen: bench report without timestamp")
	case len(r.Endpoints) == 0:
		return fmt.Errorf("loadgen: bench report without endpoints")
	}
	return nil
}

// ReadReport loads and validates a BENCH_*.json file.
func ReadReport(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("loadgen: parse %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("loadgen: %s: %w", path, err)
	}
	return &r, nil
}
