package obs

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
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
