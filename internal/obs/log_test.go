package obs

import (
	"bytes"
	"context"
	"flag"
	"log/slog"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// restoreLogging saves the process-wide logging state mutated by SetupLogger
// (default logger + LevelVar) and restores it when the test ends.
func restoreLogging(t *testing.T) {
	t.Helper()
	oldLogger := slog.Default()
	oldLevel := LogLevel()
	t.Cleanup(func() {
		slog.SetDefault(oldLogger)
		SetLogLevel(oldLevel)
	})
}

func TestSetupLoggerKnownValues(t *testing.T) {
	restoreLogging(t)
	var buf bytes.Buffer
	SetupLogger(&buf, "json", "warn")
	if LogLevel() != slog.LevelWarn {
		t.Errorf("level = %v, want warn", LogLevel())
	}
	if strings.Contains(buf.String(), "falling back") {
		t.Errorf("valid flags warned: %q", buf.String())
	}
	slog.Warn("check format")
	if !strings.Contains(buf.String(), `"msg":"check format"`) {
		t.Errorf("json format not applied: %q", buf.String())
	}
}

func TestSetupLoggerUnknownLevelWarns(t *testing.T) {
	restoreLogging(t)
	var buf bytes.Buffer
	SetupLogger(&buf, "text", "verbose")
	out := buf.String()
	if !strings.Contains(out, "unknown -log-level, falling back") {
		t.Fatalf("no warning for unknown level: %q", out)
	}
	if !strings.Contains(out, "value=verbose") || !strings.Contains(out, "fallback=info") {
		t.Errorf("warning does not name bad value and fallback: %q", out)
	}
	if LogLevel() != slog.LevelInfo {
		t.Errorf("level = %v, want info fallback", LogLevel())
	}
}

func TestSetupLoggerUnknownFormatWarns(t *testing.T) {
	restoreLogging(t)
	var buf bytes.Buffer
	SetupLogger(&buf, "yaml", "info")
	out := buf.String()
	if !strings.Contains(out, "unknown -log-format, falling back") {
		t.Fatalf("no warning for unknown format: %q", out)
	}
	if !strings.Contains(out, "value=yaml") || !strings.Contains(out, "fallback=text") {
		t.Errorf("warning does not name bad value and fallback: %q", out)
	}
	// The fallback format is text: the warning itself proves it (text
	// rendering uses key=value pairs, not JSON).
	if strings.Contains(out, `{"`) {
		t.Errorf("fallback format is not text: %q", out)
	}
}

func TestSetupLoggerUnknownBothWarnTwice(t *testing.T) {
	restoreLogging(t)
	var buf bytes.Buffer
	SetupLogger(&buf, "xml", "chatty")
	out := buf.String()
	if !strings.Contains(out, "unknown -log-level, falling back") ||
		!strings.Contains(out, "unknown -log-format, falling back") {
		t.Errorf("expected both warnings, got: %q", out)
	}
}

// flagNames lists the flags registered on fs, sorted.
func flagNames(fs *flag.FlagSet) []string {
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	return names
}

// The base set is what every binary binds; the serving set adds exactly the
// four knobs of a daemon serving HTTP through Middleware.
func TestBindFlagsBaseAndServingSets(t *testing.T) {
	fs := flag.NewFlagSet("base", flag.ContinueOnError)
	base := BindFlags(fs)
	if got, want := flagNames(fs), []string{"debug-addr", "log-format", "log-level"}; !slices.Equal(got, want) {
		t.Errorf("BindFlags registers %v, want %v", got, want)
	}
	if base.SLO != nil || base.ProfileDir != "" || base.TraceSample != defaultTraceSample {
		t.Errorf("base Flags = %+v, want no SLO, no profile dir, sample %v", base, defaultTraceSample)
	}

	fs = flag.NewFlagSet("serving", flag.ContinueOnError)
	BindServingFlags(fs)
	want := []string{"debug-addr", "log-format", "log-level", "profile-dir", "slo", "slo-interval", "trace-sample"}
	if got := flagNames(fs); !slices.Equal(got, want) {
		t.Errorf("BindServingFlags registers %v, want %v", got, want)
	}
}

// Setup on a base Flags starts no SLO engine, where a serving one does, and
// its "debug endpoints up" line names only what is mounted: no /v1/profiles
// without -profile-dir.
func TestSetupOnBaseFlagsStartsNoSLOEngine(t *testing.T) {
	restoreLogging(t)
	defer SetDefaultSpans(DefaultSpans())
	defer SetDefaultCapture(DefaultCapture())
	stderr, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer func(prev *os.File) { os.Stderr = prev }(os.Stderr)
	os.Stderr = stderr

	base := BindFlags(flag.NewFlagSet("base", flag.ContinueOnError))
	base.DebugAddr = "127.0.0.1:0"
	_, stopBase := base.Setup("setup-base")
	defer stopBase(context.Background())
	_, stopServing := BindServingFlags(flag.NewFlagSet("serving", flag.ContinueOnError)).Setup("setup-serving")
	defer stopServing(context.Background())

	burning := func(service string) bool {
		for _, s := range Default().Snapshot() {
			if s.Name == "slo_burn_rate" && LabelValue(s, "service") == service {
				return true
			}
		}
		return false
	}
	for deadline := time.Now().Add(5 * time.Second); !burning("setup-serving"); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the serving Flags' SLO engine exported no slo_burn_rate")
		}
	}
	if burning("setup-base") {
		t.Error("Setup on a base Flags started an SLO engine")
	}

	out, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "debug endpoints up") {
		t.Fatalf("no debug listener line in %q", out)
	}
	if strings.Contains(string(out), "/v1/profiles") {
		t.Errorf("debug listener line names an unmounted /v1/profiles: %q", out)
	}
}
