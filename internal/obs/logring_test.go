package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// The spellings -log-level, PUT /v1/loglevel and ?level= all accept.
func TestParseLogLevel(t *testing.T) {
	for _, c := range []struct {
		in   string
		want slog.Level
		ok   bool
	}{
		{"debug", slog.LevelDebug, true},
		{"INFO", slog.LevelInfo, true},
		{"Warn", slog.LevelWarn, true},
		{"warning", slog.LevelWarn, true},
		{"WARNING", slog.LevelWarn, true},
		{" error ", slog.LevelError, true},
		{"INFO+2", slog.LevelInfo + 2, true},
		{"warn-1", slog.LevelWarn - 1, true},
		{"", 0, false},
		{"verbose", 0, false},
		{"warning+2", 0, false},
	} {
		got, err := ParseLogLevel(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseLogLevel(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

func testRing() *LogRing {
	r := NewLogRing()
	r.Registry = NewRegistry()
	return r
}

func TestLogRingEvictionOrder(t *testing.T) {
	r := testRing()
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for i := 0; i < logBuffer+3; i++ {
		r.Append(LogRecord{Time: base.Add(time.Duration(i) * time.Second),
			Level: "INFO", Msg: "m", Attrs: map[string]string{"i": strconv.Itoa(i)}})
	}
	recs := r.Query(LogFilter{})
	if len(recs) != logBuffer {
		t.Fatalf("Query returned %d records, want %d", len(recs), logBuffer)
	}
	// Oldest-first, and only the newest logBuffer survive: seqs 4..logBuffer+3.
	for i, rec := range recs {
		if want := uint64(4 + i); rec.Seq != want {
			t.Errorf("recs[%d].Seq = %d, want %d", i, rec.Seq, want)
		}
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Time.Before(recs[i-1].Time) {
			t.Errorf("records out of time order at %d", i)
		}
	}
}

func TestLogRingCountsRecords(t *testing.T) {
	r := testRing()
	r.Append(LogRecord{Level: "INFO", Service: "ctlogd", Msg: "a"})
	r.Append(LogRecord{Level: "ERROR", Service: "ctlogd", Msg: "b"})
	r.Append(LogRecord{Level: "ERROR", Service: "ctlogd", Msg: "c"})
	if got := r.Registry.Counter("log_records_total", "service", "ctlogd", "level", "error").Value(); got != 2 {
		t.Errorf("log_records_total{level=error} = %d, want 2", got)
	}
	if got := r.Registry.Counter("log_records_total", "service", "ctlogd", "level", "info").Value(); got != 1 {
		t.Errorf("log_records_total{level=info} = %d, want 1", got)
	}
}

func TestLogRingConcurrent(t *testing.T) {
	r := testRing()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Append(LogRecord{Time: time.Now(), Level: "INFO", Msg: "w"})
			}
		}(w)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				recs := r.Query(LogFilter{Limit: 10})
				if len(recs) > 10 {
					t.Errorf("limit ignored: %d records", len(recs))
					return
				}
				var buf bytes.Buffer
				if err := r.WriteJSONL(&buf); err != nil {
					t.Errorf("WriteJSONL: %v", err)
					return
				}
			}
		}()
	}
	// Wait for the writers, then release the readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	<-done
	if got := len(r.Query(LogFilter{})); got != logBuffer {
		t.Fatalf("ring holds %d records, want a full ring of %d", got, logBuffer)
	}
	// Sequence numbers must be dense and strictly increasing across the
	// retained window even under contention.
	recs := r.Query(LogFilter{})
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			t.Fatalf("non-contiguous seq at %d: %d then %d", i, recs[i-1].Seq, recs[i].Seq)
		}
	}
}

func TestLogFilterCombinations(t *testing.T) {
	r := testRing()
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	r.Append(LogRecord{Time: base, Level: "DEBUG", Msg: "poll round", TraceID: "aaa"})
	r.Append(LogRecord{Time: base.Add(time.Second), Level: "INFO", Msg: "request served",
		TraceID: "bbb", Attrs: map[string]string{"route": "/v1/cert/{fp}"}})
	r.Append(LogRecord{Time: base.Add(2 * time.Second), Level: "ERROR", Msg: "backend down", TraceID: "bbb"})
	r.Append(LogRecord{Time: base.Add(3 * time.Second), Level: "WARN", Msg: "retrying", TraceID: "aaa"})

	cases := []struct {
		name string
		f    LogFilter
		want []string // expected messages in order
	}{
		{"all", LogFilter{}, []string{"poll round", "request served", "backend down", "retrying"}},
		{"min level warn", LogFilter{MinLevel: slog.LevelWarn, LevelSet: true}, []string{"backend down", "retrying"}},
		{"trace", LogFilter{TraceID: "bbb"}, []string{"request served", "backend down"}},
		{"since", LogFilter{Since: base.Add(time.Second)}, []string{"backend down", "retrying"}},
		{"q msg", LogFilter{Q: "SERVED"}, []string{"request served"}},
		{"q attr", LogFilter{Q: "/v1/cert"}, []string{"request served"}},
		{"limit", LogFilter{Limit: 2}, []string{"backend down", "retrying"}},
		{"trace+level", LogFilter{TraceID: "bbb", MinLevel: slog.LevelError, LevelSet: true}, []string{"backend down"}},
		{"since+limit", LogFilter{Since: base, Limit: 1}, []string{"retrying"}},
	}
	for _, tc := range cases {
		var got []string
		for _, rec := range r.Query(tc.f) {
			got = append(got, rec.Msg)
		}
		if strings.Join(got, "|") != strings.Join(tc.want, "|") {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestLogsEndpoint(t *testing.T) {
	r := testRing()
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	r.Append(LogRecord{Time: base, Level: "INFO", Msg: "hello", TraceID: "t1"})
	r.Append(LogRecord{Time: base.Add(time.Second), Level: "ERROR", Msg: "boom", TraceID: "t2"})
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	get := func(query string) []LogRecord {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/logs" + query)
		if err != nil {
			t.Fatalf("GET %s: %v", query, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", query, resp.StatusCode)
		}
		var recs []LogRecord
		if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return recs
	}
	if recs := get(""); len(recs) != 2 {
		t.Errorf("unfiltered: %d records, want 2", len(recs))
	}
	if recs := get("?level=error"); len(recs) != 1 || recs[0].Msg != "boom" {
		t.Errorf("?level=error: %+v", recs)
	}
	if recs := get("?trace=t1"); len(recs) != 1 || recs[0].Msg != "hello" {
		t.Errorf("?trace=t1: %+v", recs)
	}
	if recs := get("?q=boo&limit=5"); len(recs) != 1 || recs[0].Msg != "boom" {
		t.Errorf("?q=boo: %+v", recs)
	}
	if recs := get("?since=" + base.Format(time.RFC3339Nano)); len(recs) != 1 || recs[0].Msg != "boom" {
		t.Errorf("?since=: %+v", recs)
	}
	resp, err := http.Get(srv.URL + "/v1/logs?level=nonsense")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad level: status %d, want 400", resp.StatusCode)
	}
}

func TestTeeHandlerRecordsAttrsAndTrace(t *testing.T) {
	ring := testRing()
	var stderr bytes.Buffer
	inner := slog.NewTextHandler(&stderr, &slog.HandlerOptions{Level: slog.LevelDebug})
	logger := slog.New(NewTeeHandler(inner, ring))

	id := NewRequestID()
	ctx := ContextWithRequestID(context.Background(), id)
	logger.With("component", "ctlogd").WithGroup("tls").
		InfoContext(ctx, "handshake done", "cipher", "TLS_AES_128_GCM_SHA256")
	logger.Info("served", "request_id", "deadbeef", slog.Group("http", "code", 200))

	recs := ring.Query(LogFilter{})
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2", len(recs))
	}
	r0 := recs[0]
	if r0.Service != "ctlogd" {
		t.Errorf("Service = %q, want ctlogd (promoted from component attr)", r0.Service)
	}
	if r0.TraceID != id.Trace() || r0.SpanID != id.Span() {
		t.Errorf("trace/span = %q/%q, want from context %q/%q", r0.TraceID, r0.SpanID, id.Trace(), id.Span())
	}
	if got := r0.Attrs["tls.cipher"]; got != "TLS_AES_128_GCM_SHA256" {
		t.Errorf("group-dotted attr = %q (attrs %v)", got, r0.Attrs)
	}
	r1 := recs[1]
	if r1.TraceID != "deadbeef" {
		t.Errorf("TraceID = %q, want promoted request_id attr", r1.TraceID)
	}
	if got := r1.Attrs["http.code"]; got != "200" {
		t.Errorf("inline group attr = %q (attrs %v)", got, r1.Attrs)
	}
	// The stderr side is untouched by the tee.
	if !strings.Contains(stderr.String(), "handshake done") || !strings.Contains(stderr.String(), "served") {
		t.Errorf("stderr output missing records: %q", stderr.String())
	}
}

func TestLogLevelEndpoint(t *testing.T) {
	old := LogLevel()
	defer SetLogLevel(old)
	SetLogLevel(slog.LevelInfo)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/loglevel", serveLogLevel)
	mux.HandleFunc("PUT /v1/loglevel", serveLogLevel)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	levelOf := func(resp *http.Response) string {
		t.Helper()
		defer resp.Body.Close()
		var out struct {
			Level string `json:"level"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return out.Level
	}

	resp, err := http.Get(srv.URL + "/v1/loglevel")
	if err != nil {
		t.Fatal(err)
	}
	if got := levelOf(resp); got != "INFO" {
		t.Errorf("GET = %q, want INFO", got)
	}

	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/loglevel?level=debug", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := levelOf(resp); got != "DEBUG" {
		t.Errorf("PUT ?level=debug = %q, want DEBUG", got)
	}
	if LogLevel() != slog.LevelDebug {
		t.Errorf("process level = %v, want debug", LogLevel())
	}

	req, _ = http.NewRequest(http.MethodPut, srv.URL+"/v1/loglevel", strings.NewReader(`{"level":"warn"}`))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := levelOf(resp); got != "WARN" {
		t.Errorf("PUT JSON body = %q, want WARN", got)
	}

	req, _ = http.NewRequest(http.MethodPut, srv.URL+"/v1/loglevel?level=nonsense", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad level: status %d, want 400", resp.StatusCode)
	}
	if LogLevel() != slog.LevelWarn {
		t.Errorf("bad PUT changed level to %v", LogLevel())
	}
}

func TestLogSnapshotRoundTrip(t *testing.T) {
	r := testRing()
	r.Append(LogRecord{Time: time.Now().UTC(), Level: "ERROR", Service: "staleapid",
		Msg: "boom", TraceID: "abc", Attrs: map[string]string{"err": "EOF"}})
	r.Append(LogRecord{Time: time.Now().UTC(), Level: "INFO", Msg: "recovered"})

	dir := t.TempDir()
	if err := r.SnapshotDir(dir); err != nil {
		t.Fatalf("SnapshotDir: %v", err)
	}
	path := filepath.Join(dir, LogSnapshotName)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}
	recs, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatalf("ReadSnapshotFile: %v", err)
	}
	if len(recs) != 2 || recs[0].Msg != "boom" || recs[0].Attrs["err"] != "EOF" || recs[1].Msg != "recovered" {
		t.Errorf("round trip mismatch: %+v", recs)
	}
}
