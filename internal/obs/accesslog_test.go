package obs

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// slogAccess is the oracle: the stderr bytes and ring record a tee over
// slog's own text handler produces for a's slog.Record.
func slogAccess(t testing.TB, a *accessLog) ([]byte, LogRecord) {
	t.Helper()
	ring := &LogRing{Registry: NewRegistry(), buf: make([]LogRecord, 1)}
	var out bytes.Buffer
	if err := NewTeeHandler(slog.NewTextHandler(&out, nil), ring).Handle(context.Background(), a.record()); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), ring.Query(LogFilter{})[0]
}

// encodedAccess is the same through the encoder, on a tee built the way
// SetupLogger builds one over a text sink.
func encodedAccess(t testing.TB, a *accessLog) ([]byte, LogRecord) {
	t.Helper()
	ring := &LogRing{Registry: NewRegistry(), buf: make([]LogRecord, 1)}
	var out bytes.Buffer
	sink := &lockedWriter{w: &out}
	tee := &teeHandler{inner: slog.NewTextHandler(sink, nil), ring: ring, text: sink}
	tee.logAccess(a)
	return out.Bytes(), ring.Query(LogFilter{})[0]
}

func checkAccess(t testing.TB, a *accessLog) {
	t.Helper()
	wantLine, wantRec := slogAccess(t, a)
	gotLine, gotRec := encodedAccess(t, a)
	if !bytes.Equal(gotLine, wantLine) {
		t.Fatalf("access line differs from slog's\n got: %q\nwant: %q", gotLine, wantLine)
	}
	if !reflect.DeepEqual(gotRec, wantRec) {
		t.Fatalf("ring record differs from slog's\n got: %+v\nwant: %+v", gotRec, wantRec)
	}
}

func TestAccessLineMatchesSlog(t *testing.T) {
	at := time.Date(2026, 10, 17, 6, 55, 54, 123456789, time.UTC)
	base := accessLog{time: at, service: "staleapid", method: "GET",
		route: "/v1/domain/{e2ld}/staleness", path: "/v1/domain/example.com/staleness",
		remote: "192.0.2.1:51234", requestID: "4bf92f3577b34da6a3ce929d0e0e4736",
		status: 200, bytes: 312, durationMS: 1.234}
	for name, edit := range map[string]func(a *accessLog){
		"plain":                 func(*accessLog) {},
		"empty strings":         func(a *accessLog) { a.service, a.route, a.path, a.remote, a.requestID = "", "", "", "", "" },
		"space and equals":      func(a *accessLog) { a.path, a.remote = "/a b", "k=v" },
		"quote and backslash":   func(a *accessLog) { a.path, a.method = `/"x"`, `C:\dir` },
		"controls and del":      func(a *accessLog) { a.path, a.remote = "/a\tb\n", "x\x7fy" },
		"unicode":               func(a *accessLog) { a.path, a.service = "/café/日本", "ünï" },
		"non-printing runes":    func(a *accessLog) { a.path, a.remote = "/\u00ad", "\u2028" },
		"invalid utf-8":         func(a *accessLog) { a.path, a.requestID = "/\xff\xfe", "\xc3" },
		"replacement rune":      func(a *accessLog) { a.path = "/\ufffd" },
		"odd status":            func(a *accessLog) { a.status = -7 },
		"large sizes":           func(a *accessLog) { a.bytes, a.durationMS = 1<<62, 1<<62 },
		"exponent duration":     func(a *accessLog) { a.durationMS = 3 * 3600 * 1000 },
		"zero duration":         func(a *accessLog) { a.durationMS = 0 },
		"negative duration":     func(a *accessLog) { a.durationMS = -5 },
		"whole millisecond":     func(a *accessLog) { a.time = at.Truncate(time.Millisecond) },
		"fixed zone":            func(a *accessLog) { a.time = at.In(time.FixedZone("", -(3*3600 + 30*60))) },
		"five-digit year":       func(a *accessLog) { a.time = at.AddDate(9000, 0, 0) },
		"before the common era": func(a *accessLog) { a.time = time.Date(-44, 3, 15, 12, 0, 0, 7e6, time.UTC) },
	} {
		t.Run(name, func(t *testing.T) {
			a := base
			edit(&a)
			checkAccess(t, &a)
		})
	}
}

// FuzzAccessLine holds the encoder's stderr bytes and ring record to what
// slog's text handler and the tee make of the same record, over arbitrary
// fields and times.
func FuzzAccessLine(f *testing.F) {
	f.Add("staleapid", "GET", "/v1/domain/{e2ld}/staleness", "/v1/domain/example.com/staleness",
		"127.0.0.1:40000", "4bf92f3577b34da6a3ce929d0e0e4736", 200, int64(312), 1.234,
		int64(1760684154), int64(123456789), 0)
	f.Add("", "PÖST", "unmatched", "/a b=c\"d\\e", "", "\xff", 599, int64(-1), -0.001,
		int64(-62135596801), int64(999999999), -12600)
	f.Fuzz(func(t *testing.T, service, method, route, path, remote, requestID string,
		status int, size int64, durationMS float64, sec, nsec int64, zone int) {
		at := time.Unix(sec, nsec).In(time.FixedZone("", zone%(18*3600)))
		if at.IsZero() {
			t.Skip("the middleware stamps every record with the current time")
		}
		checkAccess(t, &accessLog{time: at, service: service, method: method, route: route,
			path: path, remote: remote, requestID: requestID, status: status, bytes: size,
			durationMS: durationMS})
	})
}

// Under the logger SetupLogger installs, Middleware's access lines and
// slog's own lines go through one lock: written from many goroutines at once,
// every line still arrives whole.
func TestAccessLinesNeverInterleave(t *testing.T) {
	restoreLogging(t)
	var out bytes.Buffer
	SetupLogger(&out, "text", "info")
	h := MiddlewareSpans(NewRegistry(), NewSpanStore(8, 0, 0), "svc", middlewareMux(t, nil))
	long := strings.Repeat("x", 4096)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/crl/"+long, nil))
				slog.Info("beside", "n", i, "pad", long)
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 2*4*200 {
		t.Fatalf("%d lines, want %d", len(lines), 2*4*200)
	}
	for i, l := range lines {
		ok := strings.HasPrefix(l, "time=") && (strings.Contains(l, ` msg="http request" service=svc `) ||
			strings.Contains(l, " msg=beside "))
		if !ok || strings.Count(l, "time=") != 1 {
			t.Fatalf("line %d is not one whole record: %.200q", i, l)
		}
	}
}

// Middleware takes the encoder only under the tee SetupLogger builds over a
// text sink; a tee wrapped With attributes, and the JSON format, keep slog's
// path, so what they write is unchanged.
func TestAccessLogPathByHandler(t *testing.T) {
	restoreLogging(t)
	serve := func() {
		h := MiddlewareSpans(NewRegistry(), NewSpanStore(8, 0, 0), "svc", middlewareMux(t, nil))
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/crl/LE", nil))
	}
	for _, c := range []struct {
		name    string
		install func(*bytes.Buffer)
		want    string
	}{
		{"text", func(b *bytes.Buffer) { SetupLogger(b, "text", "info") },
			` level=INFO msg="http request" service=svc method=GET route=/crl/{ca} path=/crl/LE status=200 bytes=3 duration_ms=`},
		{"text with attrs", func(b *bytes.Buffer) { slog.SetDefault(SetupLogger(b, "text", "info").With("component", "c")) },
			` level=INFO msg="http request" component=c service=svc method=GET route=/crl/{ca}`},
		{"json", func(b *bytes.Buffer) { SetupLogger(b, "json", "info") },
			`"level":"INFO","msg":"http request","service":"svc","method":"GET","route":"/crl/{ca}","path":"/crl/LE","status":200,"bytes":3,"duration_ms":`},
	} {
		var out bytes.Buffer
		c.install(&out)
		serve()
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: wrote %q, want it to contain %q", c.name, out.String(), c.want)
		}
	}
	var out bytes.Buffer
	SetupLogger(&out, "text", "warn")
	serve()
	if out.Len() != 0 {
		t.Errorf("at warn, an access line was written: %q", out.String())
	}
}
