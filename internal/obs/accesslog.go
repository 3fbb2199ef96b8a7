package obs

import (
	"cmp"
	"log/slog"
	"strconv"
	"time"
	"unicode"
	"unicode/utf8"
)

// accessLog is one served request's access-log record: Middleware's nine
// attributes, at INFO. Under the tee SetupLogger builds over a text sink it
// is written by appendText and logRecord; any other default handler gets
// record, the slog.Record both are held to byte for byte.
type accessLog struct {
	time                                            time.Time // never zero
	service, method, route, path, remote, requestID string
	status                                          int
	bytes                                           int64
	durationMS                                      float64
	// The three numbers as slog writes them, for logRecord and appendText:
	// set by render, substrings of one string.
	statusText, bytesText, durationText string
}

// render formats the numbers once, in one allocation.
func (a *accessLog) render() {
	var buf [64]byte
	b := strconv.AppendInt(buf[:0], int64(a.status), 10)
	i := len(b)
	b = strconv.AppendInt(b, a.bytes, 10)
	j := len(b)
	nums := string(strconv.AppendFloat(b, a.durationMS, 'g', -1, 64))
	a.statusText, a.bytesText, a.durationText = nums[:i], nums[i:j], nums[j:]
}

// record is the access line as a slog.Record, attributes in line order.
func (a *accessLog) record() slog.Record {
	rec := slog.NewRecord(a.time, slog.LevelInfo, "http request", 0)
	rec.AddAttrs(
		slog.String("service", a.service), slog.String("method", a.method),
		slog.String("route", a.route), slog.String("path", a.path),
		slog.Int("status", a.status), slog.Int64("bytes", a.bytes),
		slog.Float64("duration_ms", a.durationMS),
		slog.String("remote", a.remote), slog.String("request_id", a.requestID))
	return rec
}

// logRecord is what teeHandler.Handle puts into the ring for record() under
// a context without a request ID, once render has run: the service and
// request_id attributes promoted, every value in slog's Value.String form.
func (a *accessLog) logRecord() LogRecord {
	return LogRecord{Time: a.time, Level: "INFO", Service: a.service, Msg: "http request",
		TraceID: a.requestID, Attrs: map[string]string{
			"service": a.service, "method": a.method, "route": a.route, "path": a.path,
			"status": a.statusText, "bytes": a.bytesText, "duration_ms": a.durationText,
			"remote": a.remote, "request_id": a.requestID,
		}}
}

// appendText appends the line slog.TextHandler writes for record(), once
// render has run.
func (a *accessLog) appendText(b []byte) []byte {
	b = appendRFC3339Millis(append(b, "time="...), a.time)
	b = append(b, ` level=INFO msg="http request"`...)
	for _, kv := range [...][2]string{{" service=", a.service}, {" method=", a.method},
		{" route=", a.route}, {" path=", a.path}} {
		b = appendTextString(append(b, kv[0]...), kv[1])
	}
	b = append(append(b, " status="...), a.statusText...)
	b = append(append(b, " bytes="...), a.bytesText...)
	b = append(append(b, " duration_ms="...), a.durationText...)
	b = appendTextString(append(b, " remote="...), a.remote)
	b = appendTextString(append(b, " request_id="...), a.requestID)
	return append(b, '\n')
}

// appendRFC3339Millis is slog.TextHandler's time format: RFC 3339 with
// exactly three fractional digits, truncated.
func appendRFC3339Millis(b []byte, t time.Time) []byte {
	const prefixLen = len("2006-01-02T15:04:05.000")
	n := len(b)
	// RFC3339Nano trims trailing zeros; a tenth of a millisecond added keeps
	// four fractional digits, and the fourth is dropped.
	b = t.Truncate(time.Millisecond).Add(time.Millisecond/10).AppendFormat(b, time.RFC3339Nano)
	return append(b[:n+prefixLen], b[n+prefixLen+1:]...)
}

// appendTextString appends s as slog.TextHandler writes a string value: bare
// when it is non-empty and holds no space, '=', '"', control character or
// non-printing rune, Go-quoted otherwise.
func appendTextString(b []byte, s string) []byte {
	quote := s == ""
	for i := 0; i < len(s) && !quote; {
		if textSafe[s[i]] {
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		quote = r < utf8.RuneSelf || r == utf8.RuneError || !unicode.IsPrint(r)
		i += size
	}
	if quote {
		return strconv.AppendQuote(b, s)
	}
	return append(b, s...)
}

// textSafe marks the bytes appendTextString passes unread as runes.
var textSafe = func() (t [256]bool) {
	for c := '!'; c < utf8.RuneSelf; c++ {
		t[c] = c != '=' && c != '"'
	}
	return t
}()

// logAccess does for a what Handle does for a.record() when h is the tee
// SetupLogger built over a text sink: the same ring record, then the same
// line, appended and written under the lock slog's handler writes under.
func (h *teeHandler) logAccess(a *accessLog) {
	a.render()
	if ring := cmp.Or(h.ring, DefaultLogRing()); ring != nil {
		ring.Append(a.logRecord())
	}
	t := h.text
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = a.appendText(t.buf[:0])
	_, _ = t.w.Write(t.buf) // as slog.Logger does, a handler's error is dropped
}
