package obs

import (
	"context"
	"flag"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync"
	"time"
)

// SetupLogger builds a slog logger writing to w (stderr in the daemons) in
// the given format ("text" or "json") at the given level ("debug", "info",
// "warn", "error"), installs it as the slog default, and returns it. The
// level is backed by the process-wide slog.LevelVar, so PUT /v1/loglevel
// retargets a live daemon, and the handler tees every record into the
// process log ring (DefaultLogRing) for /v1/logs. Unknown values fall back
// to text/info with a warning naming the bad value and the fallback.
func SetupLogger(w io.Writer, format, level string) *slog.Logger {
	lv, levelOK := parseLevelName(level)
	if !levelOK {
		lv = slog.LevelInfo
	}
	logLevel.Set(lv)
	opts := &slog.HandlerOptions{Level: &logLevel}
	tee := &teeHandler{}
	f := strings.ToLower(format)
	if f == "json" {
		tee.inner = slog.NewJSONHandler(w, opts)
	} else {
		tee.text = &lockedWriter{w: w}
		tee.inner = slog.NewTextHandler(tee.text, opts)
	}
	l := slog.New(tee)
	slog.SetDefault(l)
	if !levelOK {
		l.Warn("unknown -log-level, falling back", "value", level, "fallback", "info")
	}
	if f != "json" && f != "text" {
		l.Warn("unknown -log-format, falling back", "value", format, "fallback", "text")
	}
	return l
}

// lockedWriter serialises writes to a log sink: slog's text handler and
// Middleware's access-log encoder each write whole lines through it, so
// lines never interleave. buf is the encoder's line, reused under mu.
type lockedWriter struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
}

func (l *lockedWriter) Write(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(b)
}

// parseLevelName maps the -log-level flag values to slog levels, reporting
// whether the name was recognised.
func parseLevelName(level string) (slog.Level, bool) {
	switch strings.ToLower(level) {
	case "debug":
		return slog.LevelDebug, true
	case "info":
		return slog.LevelInfo, true
	case "warn", "warning":
		return slog.LevelWarn, true
	case "error":
		return slog.LevelError, true
	}
	return slog.LevelInfo, false
}

// Flags carries the standard observability flag values every cmd/ binary
// accepts. Bind with BindFlags before flag.Parse, then call Setup.
type Flags struct {
	DebugAddr   string
	LogFormat   string
	LogLevel    string
	LogBuffer   int
	TraceBuffer int
	TraceSample float64
	TraceSlow   time.Duration

	// SLO and triggered-profiling knobs.
	SLO             string
	SLOInterval     time.Duration
	ProfileDir      string
	ChaosSrvLatency time.Duration
	ChaosSrvRate    float64
}

// BindFlags registers -debug-addr, -log-format, -log-level, -log-buffer, the
// tracing flags -trace-buffer/-trace-sample/-trace-slow, the SLO flags
// -slo/-slo-interval, -profile-dir and the server-side chaos latency flags
// on fs.
func BindFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.DebugAddr, "debug-addr", "",
		"serve /metrics and /debug/pprof on this address (empty disables)")
	fs.StringVar(&f.LogFormat, "log-format", "text", "log output format: text or json")
	fs.StringVar(&f.LogLevel, "log-level", "info", "log level: debug, info, warn or error")
	fs.IntVar(&f.LogBuffer, "log-buffer", DefaultLogBuffer,
		"structured log records retained in memory for /v1/logs (0 disables the ring)")
	fs.IntVar(&f.TraceBuffer, "trace-buffer", 256,
		"kept traces retained in memory for /v1/traces (0 disables tracing)")
	fs.Float64Var(&f.TraceSample, "trace-sample", 0.10,
		"fraction of healthy traces tail-kept (errors and slow traces are always kept)")
	fs.DurationVar(&f.TraceSlow, "trace-slow", 250*time.Millisecond,
		"root latency at or above which a trace is always kept")
	fs.StringVar(&f.SLO, "slo", "availability:99.9,latency:99:250ms",
		"comma-separated SLO objectives evaluated over the RED metrics "+
			"(availability:<pct> and latency:<pct>:<threshold>; \"off\" disables)")
	fs.DurationVar(&f.SLOInterval, "slo-interval", 10*time.Second,
		"SLO burn-rate sampling interval")
	fs.StringVar(&f.ProfileDir, "profile-dir", "",
		"directory for triggered pprof captures served at /v1/profiles (empty disables)")
	fs.DurationVar(&f.ChaosSrvLatency, "chaos-server-latency", 0,
		"TEST ONLY: delay injected into handled requests (0 disables)")
	fs.Float64Var(&f.ChaosSrvRate, "chaos-server-latency-rate", 1,
		"TEST ONLY: fraction of requests receiving -chaos-server-latency")
	return f
}

// Setup installs the configured logger (tagged with the component name),
// sizes the process-wide log ring (-log-buffer) and span store (-trace-*
// flags), registers the build_info and Go runtime gauges, starts the SLO
// burn-rate engine (-slo) with triggered profiling
// (-profile-dir) mounted at /v1/profile(s) — captures embed a log-ring
// black-box snapshot — arms server-side chaos latency when asked, and, when
// -debug-addr is set, starts the debug endpoint server — the Default
// registry and DefaultHealth probes behind the request-scoped Middleware, so
// the debug surface itself has RED metrics and access logs. The returned
// stop func gracefully shuts the debug server down and stops the SLO engine
// (no-op when disabled).
func (f *Flags) Setup(component string) (*slog.Logger, func(context.Context) error) {
	logger := SetupLogger(os.Stderr, f.LogFormat, f.LogLevel).With("component", component)
	if f.LogBuffer > 0 {
		SetDefaultLogRing(NewLogRing(f.LogBuffer))
	} else {
		SetDefaultLogRing(nil)
	}
	if f.TraceBuffer > 0 {
		SetDefaultSpans(NewSpanStore(f.TraceBuffer, f.TraceSample, f.TraceSlow))
	} else {
		SetDefaultSpans(nil)
	}
	RegisterRuntimeMetrics(Default(), component)

	var capture *ProfileCapture
	if f.ProfileDir != "" {
		capture = &ProfileCapture{Dir: f.ProfileDir, Logger: logger}
		h := capture.Handler()
		RegisterDebug("POST /v1/profile", h)
		RegisterDebug("GET /v1/profiles", h)
		RegisterDebug("GET /v1/profiles/{id}/{file}", h)
	}
	// The panic-recovery black box: Middleware triggers a capture (profiles +
	// log snapshot) through this process-wide pointer.
	SetDefaultCapture(capture)

	sloStop := func() {}
	if specs, err := ParseSLOSpecs(f.SLO); err != nil {
		logger.Error("bad -slo, SLO engine disabled", "err", err)
	} else if len(specs) > 0 {
		engine := &SLOEngine{
			Service:  component,
			Specs:    specs,
			Interval: f.SLOInterval,
			Logger:   logger,
		}
		if capture != nil {
			engine.OnAlert = func(a SLOAlert) {
				if a.Firing {
					capture.TriggerAsync("slo-" + a.SLO + "-" + a.Severity)
				}
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		sloStop = cancel
		go engine.Run(ctx)
	}

	if f.ChaosSrvLatency > 0 {
		logger.Warn("server-side chaos latency active", "latency", f.ChaosSrvLatency,
			"rate", f.ChaosSrvRate)
		SetServerChaosLatency(f.ChaosSrvLatency, f.ChaosSrvRate)
	}

	stop := func(context.Context) error { sloStop(); return nil }
	if f.DebugAddr != "" {
		h := Middleware(Default(), component, HandlerFor(Default(), DefaultHealth()))
		bound, shutdown, err := StartDebugServer(f.DebugAddr, h)
		if err != nil {
			logger.Error("debug server failed to start", "addr", f.DebugAddr, "err", err)
		} else {
			logger.Info("debug endpoints up", "addr", bound,
				"endpoints", "/metrics /debug/pprof /healthz /readyz /v1/traces /v1/logs /v1/loglevel /v1/profiles")
			stop = func(ctx context.Context) error { sloStop(); return shutdown(ctx) }
		}
	}
	return logger, stop
}
