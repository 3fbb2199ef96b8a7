package obs

import (
	"fmt"
	"strings"
	"time"
)

// StartStage opens one sequential pipeline stage (evidence fetch, detector,
// join) as a SpanStage record parented under parent's span, so pipeline
// internals show up inside the distributed trace of the request that ran
// them. The caller sets Items and Days as the work completes, then calls
// End. A zero parent yields a record with no trace ID, which End still
// times but the span store ignores.
func StartStage(parent RequestID, service, name string) *SpanRecord {
	rec := &SpanRecord{Service: service, Name: name, Kind: SpanStage, Start: time.Now()}
	if !parent.IsZero() {
		rec.TraceID, rec.SpanID, rec.ParentID = parent.Trace(), parent.Child().Span(), parent.Span()
	}
	return rec
}

// End stamps the stage's wall time and records it in the process span store.
func (r *SpanRecord) End() {
	r.Duration = time.Since(r.Start)
	DefaultSpans().Record(*r)
}

// StageJSON is the stage-timing view of a span tree emitted by
// `experiments -json` and rendered by `experiments -stages`.
type StageJSON struct {
	Name     string      `json:"name"`
	Ms       float64     `json:"ms"`
	Items    int64       `json:"items,omitempty"`
	Days     string      `json:"days,omitempty"`
	Children []StageJSON `json:"children,omitempty"`
}

// StageView projects a span tree onto its stage timings.
func StageView(n *SpanTree) StageJSON {
	out := StageJSON{Name: n.Name, Ms: float64(n.Duration.Microseconds()) / 1000, Items: n.Items, Days: n.Days}
	for _, c := range n.Children {
		out.Children = append(out.Children, StageView(c))
	}
	return out
}

// Render returns the stage tree as indented human-readable text.
func (s StageJSON) Render() string {
	var b strings.Builder
	s.render(&b, 0)
	return b.String()
}

func (s StageJSON) render(b *strings.Builder, depth int) {
	dur := time.Duration(s.Ms * float64(time.Millisecond))
	fmt.Fprintf(b, "%-*s%-*s %10s", 2*depth, "", 30-2*depth, s.Name, dur.Round(time.Microsecond))
	if s.Items > 0 {
		fmt.Fprintf(b, "  items=%d", s.Items)
	}
	if s.Days != "" {
		fmt.Fprintf(b, "  days=%s", s.Days)
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		c.render(b, depth+1)
	}
}
