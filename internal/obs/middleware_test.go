package obs

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// middlewareMux is a representative daemon surface: one parameterised route
// that succeeds, one that panics after writing nothing, one that records the
// context request ID so tests can assert propagation.
func middlewareMux(t *testing.T, gotID *RequestID) http.Handler {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /crl/{ca}", func(w http.ResponseWriter, r *http.Request) {
		if id, ok := RequestIDFromContext(r.Context()); ok && gotID != nil {
			*gotID = id
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	mux.HandleFunc("GET /fail", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "nope", http.StatusInternalServerError)
	})
	return mux
}

func findSample(t *testing.T, samples []Sample, name, labels string) Sample {
	t.Helper()
	for _, s := range samples {
		if s.Name == name && s.Labels == labels {
			return s
		}
	}
	t.Fatalf("no sample %s%s in %d samples", name, labels, len(samples))
	return Sample{}
}

func TestMiddlewareREDMetrics(t *testing.T) {
	reg := NewRegistry()
	ts := httptest.NewServer(Middleware(reg, "crld", middlewareMux(t, nil)))
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/crl/LetsEncrypt")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/nosuchroute")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	snap := reg.Snapshot()
	ok := findSample(t, snap, "http_requests_total",
		`{code="2xx",route="/crl/{ca}",service="crld"}`)
	if ok.Value != 3 {
		t.Errorf("2xx count = %v, want 3", ok.Value)
	}
	// The mux 404 is labelled with the unmatched fallback, not a raw path.
	nf := findSample(t, snap, "http_requests_total",
		`{code="4xx",route="unmatched",service="crld"}`)
	if nf.Value != 1 {
		t.Errorf("4xx count = %v, want 1", nf.Value)
	}
	lat := findSample(t, snap, "http_request_seconds",
		`{route="/crl/{ca}",service="crld"}`)
	if lat.Count != 3 {
		t.Errorf("latency observations = %d, want 3", lat.Count)
	}
	inFlight := findSample(t, snap, "http_in_flight_requests", `{service="crld"}`)
	if inFlight.Value != 0 {
		t.Errorf("in-flight after completion = %v, want 0", inFlight.Value)
	}
}

func TestMiddlewarePanicRecovery(t *testing.T) {
	reg := NewRegistry()
	ts := httptest.NewServer(Middleware(reg, "crld", middlewareMux(t, nil)))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatalf("panicking handler killed the connection: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", resp.StatusCode)
	}
	snap := reg.Snapshot()
	if p := findSample(t, snap, "http_panics_total", `{service="crld"}`); p.Value != 1 {
		t.Errorf("panics = %v, want 1", p.Value)
	}
	if c := findSample(t, snap, "http_requests_total",
		`{code="5xx",route="/boom",service="crld"}`); c.Value != 1 {
		t.Errorf("5xx count = %v, want 1", c.Value)
	}
}

func TestMiddlewareHonoursIncomingTraceparent(t *testing.T) {
	var gotID RequestID
	ts := httptest.NewServer(Middleware(NewRegistry(), "crld", middlewareMux(t, &gotID)))
	defer ts.Close()

	want := NewRequestID()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/crl/X", nil)
	req.Header.Set(TraceHeader, want.String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if gotID.TraceID != want.TraceID {
		t.Errorf("context trace = %s, want %s", gotID.Trace(), want.Trace())
	}
	echo := resp.Header.Get(TraceHeader)
	if !strings.Contains(echo, want.Trace()) {
		t.Errorf("response header %q does not carry trace %s", echo, want.Trace())
	}
}

func TestMiddlewareMintsIDWhenHeaderAbsentOrBad(t *testing.T) {
	for _, header := range []string{"", "garbage", "00-zzzz-1-01"} {
		var gotID RequestID
		ts := httptest.NewServer(Middleware(NewRegistry(), "crld", middlewareMux(t, &gotID)))
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/crl/X", nil)
		if header != "" {
			req.Header.Set(TraceHeader, header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if gotID.IsZero() {
			t.Errorf("header %q: no request ID minted", header)
		}
		if resp.Header.Get(TraceHeader) == "" {
			t.Errorf("header %q: minted ID not echoed", header)
		}
		ts.Close()
	}
}

func TestStatusClass(t *testing.T) {
	cases := map[int]string{200: "2xx", 204: "2xx", 301: "3xx", 404: "4xx", 500: "5xx", 99: "other", 600: "other"}
	for code, want := range cases {
		if got := StatusClass(code); got != want {
			t.Errorf("StatusClass(%d) = %q, want %q", code, got, want)
		}
	}
}
