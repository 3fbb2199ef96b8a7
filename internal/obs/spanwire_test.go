package obs

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestMiddlewareRecordsServerSpanAndExemplar(t *testing.T) {
	reg := NewRegistry()
	st := NewSpanStore(8, 1, 0) // keep everything
	st.Registry = reg
	h := MiddlewareSpans(reg, st, "api", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	mux := http.NewServeMux()
	mux.Handle("GET /things/{id}", h)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/things/42")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	traces := st.Traces(TraceFilter{WithSpans: true})
	if len(traces) != 1 {
		t.Fatalf("got %d kept traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Route != "/things/{id}" || tr.Root != "api GET /things/{id}" {
		t.Fatalf("trace summary wrong: %+v", tr)
	}
	span := tr.Spans[0]
	if span.Kind != SpanServer || span.Status != 200 || span.ParentID != "" {
		t.Fatalf("server span wrong: %+v", span)
	}

	// The kept trace's ID must be attached as the latency histogram exemplar.
	found := false
	for _, s := range reg.Snapshot() {
		if s.Name != "http_request_seconds" {
			continue
		}
		for _, b := range s.Buckets {
			if b.Exemplar != nil && b.Exemplar.TraceID == tr.TraceID {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no histogram bucket carries the kept trace's exemplar")
	}
}

func TestMiddlewareServerSpanParentsUnderCaller(t *testing.T) {
	reg := NewRegistry()
	st := NewSpanStore(8, 1, 0)
	st.Registry = reg
	srv := httptest.NewServer(MiddlewareSpans(reg, st, "api", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})))
	defer srv.Close()

	caller := NewRequestID()
	req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	req.Header.Set(TraceHeader, caller.String())
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	tr, ok := st.Trace(caller.Trace())
	if !ok {
		t.Fatal("trace with incoming traceparent not kept")
	}
	span := tr.Spans[0]
	if span.ParentID != caller.Span() {
		t.Fatalf("server span parent = %q, want caller span %q", span.ParentID, caller.Span())
	}
	if span.SpanID == caller.Span() {
		t.Fatal("server reused the caller's span ID instead of minting its own")
	}
}

func TestRegisterRuntimeMetrics(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntimeMetrics(reg, "testd")
	byName := map[string]Sample{}
	for _, s := range reg.Snapshot() {
		byName[s.Name] = s
	}
	bi, ok := byName["build_info"]
	if !ok || bi.Value != 1 {
		t.Fatalf("build_info = %+v", bi)
	}
	if LabelValue(bi, "daemon") != "testd" || LabelValue(bi, "go_version") == "" || LabelValue(bi, "revision") == "" {
		t.Fatalf("build_info labels wrong: %s", bi.Labels)
	}
	if g := byName["go_goroutines"]; g.Value < 1 {
		t.Fatalf("go_goroutines = %v, want >= 1", g.Value)
	}
	if h := byName["go_heap_alloc_bytes"]; h.Value <= 0 {
		t.Fatalf("go_heap_alloc_bytes = %v, want > 0", h.Value)
	}
	for _, name := range []string{"go_heap_objects", "go_gc_cycles_total", "go_gc_pause_seconds_total"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("runtime gauge %s missing", name)
		}
	}
}
