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
// the given format ("text" or "json") at the given level (a ParseLogLevel
// name), installs it as the slog default, and returns it. The level is
// backed by the process-wide slog.LevelVar, so PUT /v1/loglevel retargets a
// live daemon, and the handler tees every record into the process log ring
// for /v1/logs. Unknown values fall back to text/info with a warning naming
// the bad value and the fallback.
func SetupLogger(w io.Writer, format, level string) *slog.Logger {
	lv, levelErr := ParseLogLevel(level) // slog.LevelInfo on error
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
	if levelErr != nil {
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

// Flags carries the observability flag values. BindFlags binds the base set
// every cmd/ binary accepts; BindServingFlags adds the set for the daemons
// that serve HTTP through Middleware. Bind before flag.Parse, then call
// Setup.
type Flags struct {
	DebugAddr   string
	LogFormat   string
	LogLevel    string
	TraceSample float64

	// SLO and triggered-profiling knobs: nil and "" start nothing.
	SLO         []SLOSpec
	SLOInterval time.Duration
	ProfileDir  string
}

// defaultSLO is -slo's default.
const defaultSLO = "availability:99.9,latency:99:250ms"

// BindFlags registers the base set -debug-addr, -log-format and -log-level
// on fs. Its Flags samples healthy traces at -trace-sample's default and
// runs no SLO engine and no profile capture.
func BindFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{TraceSample: defaultTraceSample}
	fs.StringVar(&f.DebugAddr, "debug-addr", "",
		"serve /metrics and /debug/pprof on this address (empty disables)")
	fs.StringVar(&f.LogFormat, "log-format", "text", "log output format: text or json")
	fs.StringVar(&f.LogLevel, "log-level", "info", "log level: debug, info, warn or error")
	return f
}

// BindServingFlags registers the base set plus the serving set
// -trace-sample, -slo, -slo-interval and -profile-dir on fs. A -slo that
// does not parse fails fs.Parse.
func BindServingFlags(fs *flag.FlagSet) *Flags {
	f := BindFlags(fs)
	f.SLO, _ = ParseSLOSpecs(defaultSLO) // it parses: TestSLOFlagParsesWithTheFlags
	fs.Float64Var(&f.TraceSample, "trace-sample", f.TraceSample,
		"fraction of healthy traces tail-kept (errors and slow traces are always kept)")
	fs.Func("slo", "comma-separated SLO objectives evaluated over the RED metrics "+
		"(availability:<pct> and latency:<pct>:<threshold>; \"off\" disables) (default "+defaultSLO+")",
		func(v string) (err error) {
			f.SLO, err = ParseSLOSpecs(v)
			return err
		})
	fs.DurationVar(&f.SLOInterval, "slo-interval", 10*time.Second,
		"SLO burn-rate sampling interval")
	fs.StringVar(&f.ProfileDir, "profile-dir", "",
		"directory for triggered pprof captures served at /v1/profiles (empty disables)")
	return f
}

// Setup installs the configured logger (tagged with the component name),
// samples the process-wide span store at TraceSample, registers the
// build_info and Go runtime gauges, starts the SLO burn-rate engine (SLO)
// with triggered profiling (ProfileDir) mounted at /v1/profile(s) — captures
// embed a log-ring black-box snapshot — and, when DebugAddr is set, starts
// the debug endpoint server — the Default registry and DefaultHealth probes
// behind the request-scoped Middleware, so the debug surface itself has RED
// metrics and access logs. The returned stop func gracefully shuts the
// debug server down and stops the SLO engine (no-op when disabled).
func (f *Flags) Setup(component string) (*slog.Logger, func(context.Context) error) {
	logger := SetupLogger(os.Stderr, f.LogFormat, f.LogLevel).With("component", component)
	SetDefaultSpans(NewSpanStore(traceBuffer, f.TraceSample, traceSlow))
	RegisterRuntimeMetrics(Default(), component)

	endpoints := "/metrics /debug/pprof /healthz /readyz /v1/traces /v1/logs /v1/loglevel"
	var capture *ProfileCapture
	if f.ProfileDir != "" {
		capture = &ProfileCapture{Dir: f.ProfileDir, Logger: logger}
		h := capture.Handler()
		RegisterDebug("POST /v1/profile", h)
		RegisterDebug("GET /v1/profiles", h)
		RegisterDebug("GET /v1/profiles/{id}/{file}", h)
		endpoints += " /v1/profiles"
	}
	// The panic-recovery black box: Middleware triggers a capture (profiles +
	// log snapshot) through this process-wide pointer.
	SetDefaultCapture(capture)

	sloStop := func() {}
	if len(f.SLO) > 0 {
		engine := &SLOEngine{
			Service:  component,
			Specs:    f.SLO,
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

	stop := func(context.Context) error { sloStop(); return nil }
	if f.DebugAddr != "" {
		h := Middleware(Default(), component, HandlerFor(Default(), DefaultHealth()))
		bound, shutdown, err := StartDebugServer(f.DebugAddr, h)
		if err != nil {
			logger.Error("debug server failed to start", "addr", f.DebugAddr, "err", err)
		} else {
			logger.Info("debug endpoints up", "addr", bound, "endpoints", endpoints)
			stop = func(ctx context.Context) error { sloStop(); return shutdown(ctx) }
		}
	}
	return logger, stop
}
