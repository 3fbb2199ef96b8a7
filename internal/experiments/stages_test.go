package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"regexp"
	"slices"
	"strings"
	"testing"

	"stalecert/internal/obs"
)

// TestStageTreeView pins the `stages` object `experiments -json` emits: the
// root, the stage order, the item counts and the calendar day ranges.
func TestStageTreeView(t *testing.T) {
	r := results(t)
	tree := r.StageTree()
	if tree.Name != "pipeline" || tree.Ms <= 0 {
		t.Fatalf("root = %q (%.3f ms), want pipeline with a duration", tree.Name, tree.Ms)
	}
	want := []string{"world_build", "ct_dedup", "corpus_index",
		"detect_revoked", "detect_registrant_change", "detect_managed_tls"}
	if len(tree.Children) != len(want) {
		t.Fatalf("children = %+v, want %v", tree.Children, want)
	}
	items := map[string]int64{}
	dayRange := regexp.MustCompile(`^\d{4}-\d{2}-\d{2}\.\.\d{4}-\d{2}-\d{2}$`)
	for i, c := range tree.Children {
		if c.Name != want[i] {
			t.Errorf("child %d = %q, want %q", i, c.Name, want[i])
		}
		if len(c.Children) != 0 {
			t.Errorf("%s has children: %+v", c.Name, c.Children)
		}
		items[c.Name] = c.Items
		wantDays := c.Name != "ct_dedup" && c.Name != "corpus_index"
		if wantDays != dayRange.MatchString(c.Days) {
			t.Errorf("%s days = %q", c.Name, c.Days)
		}
	}
	for name, n := range map[string]int{
		"ct_dedup":                 r.CTDedupStats.Raw,
		"corpus_index":             r.Corpus.Len(),
		"detect_revoked":           len(r.RevokedAll),
		"detect_registrant_change": len(r.RegChange),
		"detect_managed_tls":       len(r.Managed),
	} {
		if items[name] != int64(n) {
			t.Errorf("%s items = %d, want %d", name, items[name], n)
		}
	}
	if got := tree.Children[3].Days; got != r.RevWindow.Start.String()+".."+r.RevWindow.End.String() {
		t.Errorf("detect_revoked days = %q, want the revocation window %v", got, r.RevWindow)
	}

	// Detect alone times the same stages minus the world build, and the run
	// is one kept trace in the process span store, rooted at the pipeline.
	st := obs.NewSpanStore(4, 1, 0)
	st.Registry = obs.NewRegistry()
	defer obs.SetDefaultSpans(obs.DefaultSpans())
	obs.SetDefaultSpans(st)
	if d := Detect(r.World).StageTree(); len(d.Children) != 5 || d.Children[0].Name != "ct_dedup" {
		t.Errorf("Detect stages = %+v", d.Children)
	}
	if kept := st.Traces(obs.TraceFilter{WithSpans: true}); len(kept) != 1 ||
		kept[0].Root != "experiments pipeline" || len(kept[0].Spans) != 6 {
		t.Errorf("span store after Detect = %+v", kept)
	}

	// The wire names `experiments -json` consumers read.
	raw, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"name":"pipeline"`, `"ms":`, `"children":[`, `"items":`, `"days":"`} {
		if !strings.Contains(string(raw), field) {
			t.Errorf("stages JSON lacks %s: %s", field, raw)
		}
	}
	text := tree.Render()
	if lines := strings.Split(strings.TrimRight(text, "\n"), "\n"); len(lines) != 7 ||
		!strings.HasPrefix(lines[0], "pipeline") || !strings.HasPrefix(lines[1], "  world_build") ||
		!strings.Contains(lines[4], "  items=") || !strings.Contains(lines[4], "  days=") {
		t.Errorf("rendered stage tree:\n%s", text)
	}
}

// TestReportWireKeys pins the rest of the `experiments -json` report: its
// keys in order, the method names keying each map, and detections equal to
// Table 4's certificate counts.
func TestReportWireKeys(t *testing.T) {
	r := results(t)
	var buf bytes.Buffer
	if err := r.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	if _, err := dec.Token(); err != nil {
		t.Fatal(err)
	}
	var keys []string
	values := map[string]json.RawMessage{}
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k.(string))
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		values[k.(string)] = v
	}
	want := []string{"domains", "stages", "certificates", "detections", "daily_e2lds",
		"staleness_median_days", "survival_at_90d", "headline_90d_day_reduction_pct",
		"overall_90d_day_reduction_pct"}
	if strings.Join(keys, " ") != strings.Join(want, " ") {
		t.Fatalf("report keys = %v, want %v", keys, want)
	}

	detections := map[string]int{}
	for _, row := range r.Table4Rows() {
		detections[row.Method.String()] = row.Certs
	}
	var got map[string]int
	if err := json.Unmarshal(values["detections"], &got); err != nil || !maps.Equal(got, detections) {
		t.Errorf("detections = %v (%v), want Table 4's %v", got, err, detections)
	}
	all := fmt.Sprint(slices.Sorted(maps.Keys(detections)))
	thirdParty := fmt.Sprint([]string{"Domain registrant change", "Managed TLS departure", "Revoked: key compromise"})
	for key, methods := range map[string]string{
		"daily_e2lds":                    all,
		"staleness_median_days":          thirdParty,
		"survival_at_90d":                thirdParty,
		"headline_90d_day_reduction_pct": thirdParty,
	} {
		var m map[string]float64
		if err := json.Unmarshal(values[key], &m); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if got := fmt.Sprint(slices.Sorted(maps.Keys(m))); got != methods {
			t.Errorf("%s keys = %s, want %s", key, got, methods)
		}
	}
}
