package obs

import (
	"strings"
	"testing"
	"time"
)

// TestTraceNesting: the stage view follows span parent links to any depth
// and carries each stage's items and caller-formatted day range.
func TestTraceNesting(t *testing.T) {
	start := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	span := func(id, parent, name string, offset time.Duration) SpanRecord {
		return SpanRecord{TraceID: "t", SpanID: id, ParentID: parent, Name: name, Kind: SpanStage,
			Start: start.Add(offset), Duration: 1500 * time.Microsecond}
	}
	world := span("w", "p", "world_build", 0)
	world.Items, world.Days = 42, "2019-01-02..2019-01-06"
	join := span("j", "d", "join", 2*time.Millisecond)
	join.Items = 7
	roots := BuildSpanTree([]SpanRecord{join, span("d", "p", "detect", time.Millisecond), world, span("p", "", "pipeline", 0)})
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}

	j := StageView(roots[0])
	if j.Name != "pipeline" || len(j.Children) != 2 || j.Ms != 1.5 {
		t.Fatalf("JSON root = %+v", j)
	}
	if j.Children[0].Name != "world_build" || j.Children[1].Name != "detect" {
		t.Errorf("children = %q, %q", j.Children[0].Name, j.Children[1].Name)
	}
	if j.Children[0].Items != 42 || j.Children[0].Days != "2019-01-02..2019-01-06" {
		t.Errorf("world_build JSON = %+v", j.Children[0])
	}
	if len(j.Children[1].Children) != 1 || j.Children[1].Children[0].Items != 7 {
		t.Errorf("join not nested under detect: %+v", j.Children[1])
	}
	if out := j.Render(); !strings.Contains(out, "days=2019-01-02..2019-01-06") || !strings.Contains(out, "\n    join") {
		t.Errorf("render:\n%s", out)
	}
}

func TestRenderShape(t *testing.T) {
	out := StageJSON{Name: "pipeline", Ms: 2, Children: []StageJSON{{Name: "stage", Ms: 1.25, Items: 3}}}.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("render lines = %d, want 2:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "pipeline") || !strings.HasSuffix(lines[0], " 2ms") {
		t.Errorf("line 0 = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  stage") || !strings.Contains(lines[1], " 1.25ms  items=3") {
		t.Errorf("line 1 = %q", lines[1])
	}
}

// TestTraceRecordMirrorsStages: stages opened under a request's ID land in
// the span store beneath that request's span; with no request they are timed
// but not recorded.
func TestTraceRecordMirrorsStages(t *testing.T) {
	st := NewSpanStore(8, 1, 0)
	st.Registry = NewRegistry()
	prev := DefaultSpans()
	SetDefaultSpans(st)
	defer SetDefaultSpans(prev)

	id := NewRequestID()
	sp := StartStage(id, "staleapid", "evidence")
	sp.Items = 2
	sp.End()
	StartStage(id, "staleapid", "detect").End()
	st.RecordRoot(SpanRecord{TraceID: id.Trace(), SpanID: id.Span(), Service: "staleapid",
		Name: "GET /v1/...", Kind: SpanServer, Status: 200})
	rec, ok := st.Trace(id.Trace())
	if !ok {
		t.Fatal("trace not kept")
	}
	// evidence + detect + server root
	if len(rec.Spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(rec.Spans), rec.Spans)
	}
	roots := BuildSpanTree(rec.Spans)
	if len(roots) != 1 || roots[0].SpanID != id.Span() || len(roots[0].Children) != 2 {
		t.Fatalf("stage spans did not attach under the request span: %+v", roots)
	}
	ev, det := roots[0].Children[0], roots[0].Children[1]
	if ev.Kind != SpanStage || ev.Name != "evidence" || ev.Items != 2 || det.Name != "detect" {
		t.Fatalf("stage spans wrong: %+v, %+v", ev, det)
	}

	// No enclosing request: the stage is still timed, and nothing is stored.
	before := st.reg().Counter("trace_spans_recorded_total", "service", "staleapid").Value()
	sp = StartStage(RequestID{}, "staleapid", "detect")
	sp.End()
	if sp.Duration <= 0 || sp.TraceID != "" {
		t.Errorf("unparented stage = %+v", sp)
	}
	if after := st.reg().Counter("trace_spans_recorded_total", "service", "staleapid").Value(); after != before {
		t.Errorf("unparented stage recorded a span (%d -> %d)", before, after)
	}
}
