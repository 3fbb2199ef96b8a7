package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func serverSpan(trace string, dur time.Duration, status int) SpanRecord {
	return SpanRecord{
		TraceID:  trace,
		SpanID:   "root-" + trace,
		Service:  "svc",
		Name:     "GET /x",
		Kind:     SpanServer,
		Route:    "/x",
		Start:    time.Now(),
		Duration: dur,
		Status:   status,
	}
}

func TestTailKeepsSlowTrace(t *testing.T) {
	st := NewSpanStore(8, 0, 100*time.Millisecond) // sample 0: only rules keep
	st.Registry = NewRegistry()
	if st.RecordRoot(serverSpan("fast", 10*time.Millisecond, 200)) {
		t.Fatal("fast healthy trace kept with sample=0")
	}
	if !st.RecordRoot(serverSpan("slow", 150*time.Millisecond, 200)) {
		t.Fatal("slow trace dropped")
	}
	tr, ok := st.Trace("slow")
	if !ok || tr.KeepReason != KeepSlow {
		t.Fatalf("slow trace keep reason = %q, ok=%v; want %q", tr.KeepReason, ok, KeepSlow)
	}
}

func TestTailKeepsErrorTrace(t *testing.T) {
	st := NewSpanStore(8, 0, 0)
	st.Registry = NewRegistry()
	if !st.RecordRoot(serverSpan("boom", time.Millisecond, 503)) {
		t.Fatal("5xx trace dropped")
	}
	tr, _ := st.Trace("boom")
	if tr.KeepReason != KeepError || !tr.Error {
		t.Fatalf("got reason %q error=%v; want error keep", tr.KeepReason, tr.Error)
	}

	// A healthy root whose buffered child failed is an error trace too: the
	// tail decision sees the whole trace, not just the root.
	st.Record(SpanRecord{TraceID: "childboom", SpanID: "c1", ParentID: "root-childboom",
		Service: "svc", Kind: SpanClient, Err: "connection refused"})
	if !st.RecordRoot(serverSpan("childboom", time.Millisecond, 200)) {
		t.Fatal("trace with failed child span dropped")
	}
	tr, _ = st.Trace("childboom")
	if tr.KeepReason != KeepError || len(tr.Spans) != 2 {
		t.Fatalf("got reason %q spans=%d; want error keep with both spans", tr.KeepReason, len(tr.Spans))
	}
}

func TestTailProbabilisticDropIsTraceIDConsistent(t *testing.T) {
	// The probabilistic verdict is a pure function of the trace ID, so two
	// independent stores (two daemons) agree on every trace — that is what
	// makes sampled traces stitch fleet-wide.
	a := NewSpanStore(4096, 0.2, 0)
	b := NewSpanStore(4096, 0.2, 0)
	a.Registry = NewRegistry()
	b.Registry = NewRegistry()
	kept := 0
	for i := 0; i < 2000; i++ {
		id := fmt.Sprintf("trace-%04d", i)
		ka := a.RecordRoot(serverSpan(id, time.Millisecond, 200))
		kb := b.RecordRoot(serverSpan(id, time.Millisecond, 200))
		if ka != kb {
			t.Fatalf("stores disagree on trace %s: %v vs %v", id, ka, kb)
		}
		if ka {
			kept++
		}
	}
	// ~20% of 2000 with generous slack; the exact set is deterministic.
	if kept < 250 || kept > 550 {
		t.Fatalf("kept %d of 2000 at sample=0.2, want roughly 400", kept)
	}
	// And deterministic across runs of the same store config.
	c := NewSpanStore(4096, 0.2, 0)
	c.Registry = a.Registry
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("trace-%04d", i)
		_, wantKept := a.Trace(id)
		if got := c.RecordRoot(serverSpan(id, time.Millisecond, 200)); got != wantKept {
			t.Fatalf("verdict for %s not deterministic: %v then %v", id, wantKept, got)
		}
	}
}

func TestSpanStoreRingEviction(t *testing.T) {
	st := NewSpanStore(3, 1, 0) // keep everything, capacity 3
	st.Registry = NewRegistry()
	for i := 0; i < 10; i++ {
		st.RecordRoot(serverSpan(fmt.Sprintf("t%d", i), time.Millisecond, 200))
	}
	if st.Len() != 3 {
		t.Fatalf("kept %d traces, capacity 3", st.Len())
	}
	if _, ok := st.Trace("t0"); ok {
		t.Fatal("oldest trace survived eviction")
	}
	traces := st.Traces(TraceFilter{})
	if len(traces) != 3 || traces[0].TraceID != "t9" || traces[2].TraceID != "t7" {
		t.Fatalf("newest-first listing wrong: %+v", traces)
	}
}

func TestSpanStoreConcurrentWriters(t *testing.T) {
	st := NewSpanStore(16, 1, 0)
	st.Registry = NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("w%d-t%d", w, i)
				st.Record(SpanRecord{TraceID: id, SpanID: id + "-child", ParentID: id + "-root",
					Service: "svc", Kind: SpanClient})
				st.RecordRoot(serverSpan(id, time.Millisecond, 200))
				st.Traces(TraceFilter{Limit: 4})
				st.Trace(id)
			}
		}(w)
	}
	wg.Wait()
	if got := st.Len(); got != 16 {
		t.Fatalf("store holds %d traces, capacity 16", got)
	}
}

func TestSpanStorePendingBounded(t *testing.T) {
	st := NewSpanStore(4, 1, 0)
	st.Registry = NewRegistry()
	// Roots that never finish must not leak the pending buffer.
	for i := 0; i < 100; i++ {
		st.Record(SpanRecord{TraceID: fmt.Sprintf("orphan%d", i), SpanID: "s", Service: "svc"})
	}
	st.mu.Lock()
	pending := len(st.pending)
	st.mu.Unlock()
	if pending > 4 {
		t.Fatalf("pending buffer grew to %d, capacity 4", pending)
	}
}

func TestStragglerSpanJoinsKeptTrace(t *testing.T) {
	st := NewSpanStore(8, 1, 0)
	st.Registry = NewRegistry()
	st.RecordRoot(serverSpan("t", 10*time.Millisecond, 200))
	st.Record(SpanRecord{TraceID: "t", SpanID: "late", ParentID: "root-t", Service: "other", Kind: SpanClient})
	tr, _ := st.Trace("t")
	if len(tr.Spans) != 2 {
		t.Fatalf("straggler span lost: %d spans", len(tr.Spans))
	}
	if len(tr.Services) != 2 || tr.Services[0] != "other" || tr.Services[1] != "svc" {
		t.Fatalf("services not merged sorted: %v", tr.Services)
	}
}

func TestBuildSpanTree(t *testing.T) {
	base := time.Now()
	spans := []SpanRecord{
		{SpanID: "b", ParentID: "a", Start: base.Add(2 * time.Millisecond)},
		{SpanID: "a", Start: base},
		{SpanID: "c", ParentID: "a", Start: base.Add(time.Millisecond)},
		{SpanID: "c", ParentID: "a", Start: base.Add(time.Millisecond)}, // dup dropped
		{SpanID: "d", ParentID: "missing", Start: base.Add(3 * time.Millisecond)},
	}
	roots := BuildSpanTree(spans)
	if len(roots) != 2 {
		t.Fatalf("got %d roots, want 2 (a + orphan d)", len(roots))
	}
	if roots[0].SpanID != "a" || roots[1].SpanID != "d" {
		t.Fatalf("root order wrong: %s, %s", roots[0].SpanID, roots[1].SpanID)
	}
	if len(roots[0].Children) != 2 || roots[0].Children[0].SpanID != "c" || roots[0].Children[1].SpanID != "b" {
		t.Fatalf("children of a wrong: %+v", roots[0].Children)
	}
}

func TestTraceHandlers(t *testing.T) {
	st := NewSpanStore(8, 1, 0)
	st.Registry = NewRegistry()
	rec := serverSpan("t1", 20*time.Millisecond, 200)
	st.Record(SpanRecord{TraceID: "t1", SpanID: "child", ParentID: rec.SpanID, Service: "svc", Kind: SpanClient})
	st.RecordRoot(rec)
	st.RecordRoot(serverSpan("t2", time.Millisecond, 500))

	srv := httptest.NewServer(st.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/v1/traces")
	if code != 200 {
		t.Fatalf("/v1/traces status %d", code)
	}
	var list []TraceRecord
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatalf("bad listing JSON: %v", err)
	}
	if len(list) != 2 || list[0].Spans != nil {
		t.Fatalf("listing: %d traces, spans included=%v", len(list), list[0].Spans != nil)
	}

	code, body = get("/v1/traces?error=1")
	if err := json.Unmarshal([]byte(body), &list); err != nil || code != 200 {
		t.Fatalf("error filter: %v status %d", err, code)
	}
	if len(list) != 1 || list[0].TraceID != "t2" {
		t.Fatalf("error filter returned %+v", list)
	}

	code, body = get("/v1/traces/t1")
	if code != 200 {
		t.Fatalf("/v1/traces/t1 status %d", code)
	}
	var tree TraceTreeJSON
	if err := json.Unmarshal([]byte(body), &tree); err != nil {
		t.Fatalf("bad tree JSON: %v", err)
	}
	if len(tree.Spans) != 1 || len(tree.Spans[0].Children) != 1 || tree.Spans[0].Children[0].SpanID != "child" {
		t.Fatalf("tree shape wrong: %+v", tree.Spans)
	}

	if code, _ := get("/v1/traces/nope"); code != 404 {
		t.Fatalf("unknown trace status %d, want 404", code)
	}

	// A min_ms outside [0, the largest duration] is a 400 like a bad limit,
	// never a filter that lists every trace.
	for _, q := range []string{"-5", "9.3e12", "1e300", "Inf", "NaN"} {
		if code, body := get("/v1/traces?min_ms=" + q); code != 400 {
			t.Errorf("min_ms=%s: status %d, want 400; body %s", q, code, body)
		}
	}
	code, body = get("/v1/traces?min_ms=5")
	if err := json.Unmarshal([]byte(body), &list); err != nil || code != 200 {
		t.Fatalf("min_ms=5: %v status %d", err, code)
	}
	if len(list) != 1 || list[0].TraceID != "t1" {
		t.Fatalf("min_ms=5 returned %+v", list)
	}
}

func TestSpanRecordJSONRoundTrip(t *testing.T) {
	in := SpanRecord{TraceID: "t", SpanID: "s", ParentID: "p", Service: "svc", Name: "GET /x",
		Kind: SpanClient, Start: time.Now().UTC(), Duration: 1234567 * time.Nanosecond,
		Peer: "127.0.0.1:99", Status: 503, Attempt: 2, Items: 7, Err: "boom"}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out SpanRecord
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip changed record:\n in %+v\nout %+v", in, out)
	}
}
