package obs

import (
	"bytes"
	"net/http"
	"net/url"
	"testing"
)

// FuzzParseProm: ParseProm never panics, and whatever it accepts re-exposes
// to a fixed point — write(parse(x)) parses back and writes the same bytes,
// so a series survives any number of federation hops unchanged.
func FuzzParseProm(f *testing.F) {
	reg := NewRegistry()
	reg.Counter("http_requests_total", "code", "2xx", "path", "a\\b\n\"c\"").Add(3)
	reg.Gauge("queue_depth").Set(-2.5)
	reg.Histogram("http_request_seconds", []float64{0.1, 1}, "route", "/v1").ObserveExemplar(0.05, "4bf92f3577b34da6")
	var seed bytes.Buffer
	WriteProm(&seed, reg)
	f.Add(seed.Bytes())
	f.Add([]byte("bare_value 2.5\nwith_ts{a=\"b\"} 3 1712345678000\nspecial +Inf\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		samples, err := ParseProm(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once bytes.Buffer
		WriteSamples(&once, samples)
		again, err := ParseProm(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of own exposition failed: %v\ninput: %q\nwritten: %q", err, data, once.Bytes())
		}
		var twice bytes.Buffer
		WriteSamples(&twice, again)
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("exposition is not a fixed point\ninput: %q\nfirst:  %q\nsecond: %q", data, once.Bytes(), twice.Bytes())
		}
	})
}

// FuzzListingFilters: ParseTraceFilter and ParseLogFilter, the query
// parsers behind /v1/traces, /v1/logs, /fleet/traces and /fleet/logs, never
// panic on a query string, and a filter either accepts has no negative
// MinDuration or Limit. Seeds in testdata/fuzz are the handler tests' URLs.
func FuzzListingFilters(f *testing.F) {
	f.Fuzz(func(t *testing.T, query string) {
		r := &http.Request{URL: &url.URL{RawQuery: query}}
		if tf, err := ParseTraceFilter(r); err == nil && (tf.MinDuration < 0 || tf.Limit < 0) {
			t.Fatalf("ParseTraceFilter(%q) accepted min duration %v, limit %d", query, tf.MinDuration, tf.Limit)
		}
		if lf, err := ParseLogFilter(r); err == nil && lf.Limit < 0 {
			t.Fatalf("ParseLogFilter(%q) accepted limit %d", query, lf.Limit)
		}
	})
}

// FuzzParseTraceparent: an accepted header re-renders (canonical version and
// flags, lower-case hex) to a value that parses back to the same ID.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("ff-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-00-extra")
	f.Add("00-00000000000000000000000000000000-00f067aa0ba902b7-01")
	f.Fuzz(func(t *testing.T, h string) {
		id, ok := ParseTraceparent(h)
		if !ok {
			if id != (RequestID{}) {
				t.Fatalf("rejected %q but returned non-zero ID %v", h, id)
			}
			return
		}
		back, ok := ParseTraceparent(id.String())
		if !ok || back != id {
			t.Fatalf("ParseTraceparent(%q).String() = %q does not parse back (%v, %v)", h, id.String(), back, ok)
		}
	})
}
