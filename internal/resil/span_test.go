package resil

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"stalecert/internal/obs"
)

// TestRetryAttemptsAreSiblingSpans is the trace contract for the resilience
// stack: one logical call that needed a retry stores a "call" span whose
// children are the individual attempts, numbered, with the failed first
// attempt visible — and the trace is tail-kept because of that failure even
// at sample rate 0.
func TestRetryAttemptsAreSiblingSpans(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	st := obs.NewSpanStore(8, 0, 0) // sample 0: only the error rule can keep
	st.Registry = obs.NewRegistry()
	hc := InstrumentClient(&http.Client{}, Options{
		Service: "retry-span-test",
		Spans:   st,
		Policy: Policy{
			MaxAttempts: 3,
			BaseDelay:   time.Millisecond,
			MaxDelay:    2 * time.Millisecond,
		},
	})

	resp, err := hc.Get(srv.URL + "/thing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final status %d", resp.StatusCode)
	}

	traces := st.Traces(obs.TraceFilter{WithSpans: true})
	if len(traces) != 1 {
		t.Fatalf("kept %d traces at sample=0, want 1 (error keep via failed attempt)", len(traces))
	}
	tr := traces[0]
	if tr.KeepReason != obs.KeepError {
		t.Fatalf("keep reason %q, want %q", tr.KeepReason, obs.KeepError)
	}
	roots := obs.BuildSpanTree(tr.Spans)
	if len(roots) != 1 {
		t.Fatalf("trace has %d roots, want 1 call span: %+v", len(roots), roots)
	}
	call := roots[0]
	if call.Kind != obs.SpanCall || call.Attempt != 2 || call.Status != http.StatusOK {
		t.Fatalf("call span wrong: %+v", call.SpanRecord)
	}
	if len(call.Children) != 2 {
		t.Fatalf("call span has %d attempt children, want 2", len(call.Children))
	}
	first, second := call.Children[0], call.Children[1]
	if first.Kind != obs.SpanClient || first.Attempt != 1 || first.Status != http.StatusServiceUnavailable {
		t.Fatalf("first attempt span wrong: %+v", first.SpanRecord)
	}
	if second.Attempt != 2 || second.Status != http.StatusOK {
		t.Fatalf("second attempt span wrong: %+v", second.SpanRecord)
	}
}

// TestCallSpanJoinsCallerTrace: when the caller already carries a request ID
// (an enclosing server request), the call span buffers under that trace and
// parents beneath the caller's span instead of starting a trace of its own.
func TestCallSpanJoinsCallerTrace(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()

	st := obs.NewSpanStore(8, 1, 0)
	st.Registry = obs.NewRegistry()
	hc := NewHTTPClient(Options{Service: "join-test", Spans: st})

	id := obs.NewRequestID()
	req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	req = req.WithContext(obs.ContextWithRequestID(req.Context(), id))
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Nothing kept yet: the enclosing request is still open.
	if kept := len(st.Traces(obs.TraceFilter{})); kept != 0 {
		t.Fatalf("call finalized the caller's trace early: %d kept", kept)
	}
	st.RecordRoot(obs.SpanRecord{TraceID: id.Trace(), SpanID: id.Span(),
		Service: "join-test", Name: "outer", Kind: obs.SpanServer, Status: 200})
	tr, ok := st.Trace(id.Trace())
	if !ok {
		t.Fatal("caller trace not kept")
	}
	roots := obs.BuildSpanTree(tr.Spans)
	if len(roots) != 1 || roots[0].SpanID != id.Span() {
		t.Fatalf("call span did not parent under the caller: %+v", roots)
	}
	if len(roots[0].Children) != 1 || roots[0].Children[0].Kind != obs.SpanCall {
		t.Fatalf("caller's children wrong: %+v", roots[0].Children)
	}
}

// TestTransportRecordsClientSpans: each attempt is a client span under the
// call span, carrying the ID the peer was sent, the peer and the status. A
// call without a context ID roots its own trace; one with an ID buffers
// under the caller's span.
func TestTransportRecordsClientSpans(t *testing.T) {
	var sent atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sent.Store(r.Header.Get(obs.TraceHeader))
		w.WriteHeader(http.StatusTeapot)
	}))
	defer srv.Close()

	st := obs.NewSpanStore(8, 1, 0)
	st.Registry = obs.NewRegistry()
	hc := NewHTTPClient(Options{Service: "client-span-test", Spans: st})
	checkAttempt := func(call *obs.SpanTree) {
		t.Helper()
		if len(call.Children) != 1 {
			t.Fatalf("call span has %d children, want the one attempt", len(call.Children))
		}
		a := call.Children[0]
		id, _ := obs.ParseTraceparent(sent.Load().(string))
		if a.Kind != obs.SpanClient || a.Attempt != 1 || a.Status != http.StatusTeapot || a.Peer == "" ||
			a.Name != call.Name || a.SpanID != id.Span() || a.TraceID != id.Trace() {
			t.Fatalf("attempt span wrong (peer was sent %s): %+v", sent.Load(), a.SpanRecord)
		}
	}

	resp, err := hc.Get(srv.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	traces := st.Traces(obs.TraceFilter{WithSpans: true})
	if len(traces) != 1 {
		t.Fatalf("got %d kept traces, want 1", len(traces))
	}
	roots := obs.BuildSpanTree(traces[0].Spans)
	if len(roots) != 1 || roots[0].Kind != obs.SpanCall || roots[0].ParentID != "" {
		t.Fatalf("originated trace's root is not the call span: %+v", roots)
	}
	checkAttempt(roots[0])

	id := obs.NewRequestID()
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/y", nil)
	req = req.WithContext(obs.ContextWithRequestID(req.Context(), id))
	resp, err = hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st.RecordRoot(obs.SpanRecord{TraceID: id.Trace(), SpanID: id.Span(), Service: "client-span-test",
		Name: "outer", Kind: obs.SpanServer, Status: 200, Duration: time.Millisecond})
	tr, ok := st.Trace(id.Trace())
	if !ok || len(tr.Spans) != 3 {
		t.Fatalf("caller trace wrong: ok=%v %+v", ok, tr)
	}
	roots = obs.BuildSpanTree(tr.Spans)
	if len(roots) != 1 || roots[0].SpanID != id.Span() || len(roots[0].Children) != 1 {
		t.Fatalf("call span did not parent under the caller: %+v", roots)
	}
	checkAttempt(roots[0].Children[0])
}
