package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestParsePromRoundTripsWriteProm is the federation contract: everything our
// exposition writer emits — counters, gauges, labelled histograms, and label
// values containing backslashes, quotes and newlines — must parse back into
// the identical sample list.
func TestParsePromRoundTripsWriteProm(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("plain_total").Add(42)
	reg.Counter("evil_total", "path", `C:\temp\"quoted"`, "msg", "line1\nline2").Inc()
	reg.Counter("evil_total", "path", `trailing\`, "msg", `say "hi"`).Add(7)
	reg.Gauge("temp_celsius", "room", "server\nroom").Set(21.5)
	h := reg.Histogram("req_seconds", []float64{0.1, 1, 10}, "svc", `a\b"c`)
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	WriteProm(&buf, reg)
	got, err := ParseProm(&buf)
	if err != nil {
		t.Fatalf("ParseProm: %v\nexposition:\n%s", err, buf.String())
	}
	want := reg.Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch\ngot:  %+v\nwant: %+v\nexposition:\n%s", got, want, buf.String())
	}

	// Second generation: re-render the parsed samples and parse again.
	var buf2 bytes.Buffer
	WriteSamples(&buf2, got)
	got2, err := ParseProm(&buf2)
	if err != nil {
		t.Fatalf("second-generation ParseProm: %v", err)
	}
	if !reflect.DeepEqual(got2, want) {
		t.Fatal("second-generation round trip diverged")
	}
}

func TestParsePromUntypedAndTimestamps(t *testing.T) {
	input := "some_metric{a=\"b\"} 3 1700000000\nbare_value 2.5\n"
	samples, err := ParseProm(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("samples = %+v", samples)
	}
	if samples[0].Name != "bare_value" || samples[0].Kind != KindGauge || samples[0].Value != 2.5 {
		t.Errorf("bare sample = %+v", samples[0])
	}
	if samples[1].Value != 3 {
		t.Errorf("timestamped sample = %+v", samples[1])
	}
}

func TestParsePromRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"no_value_here\n",
		"unterminated{a=\"b 3\n",
		"bad_value{} xyz\n",
		// A bare sample named like a declared histogram family used to parse
		// as a gauge beside the histogram, sharing its one TYPE line.
		"# TYPE h histogram\nh 0\nh_count 0\n",
		// Names off the wire were never validated: this one was "h_bucket 000".
		"h_bucket 000{}00 0\n",
		// Found by the same fuzz once those two were fixed: the collision in
		// either declaration order, counts uint64 cannot carry, and label
		// names with structure in them.
		"h_count 1\n# TYPE h histogram\nh_count 2\n",
		"# TYPE h histogram\nh_count 1\n# TYPE h gauge\nh 1\n",
		"# TYPE h histogram\nh_count -1\n",
		"# TYPE h histogram\nh_bucket{le=\"NaN\"} 1\n",
		"m{a,b=\"x\"} 1\n",
	} {
		if _, err := ParseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseProm(%q) succeeded, want error", bad)
		}
	}
}

func TestWithLabelsAndLabelValue(t *testing.T) {
	s := Sample{Name: "m", Labels: `{code="2xx",svc="x"}`}
	out, err := WithLabels(s, "job", "ctlogd", "svc", "y")
	if err != nil {
		t.Fatal(err)
	}
	if out.Labels != `{code="2xx",job="ctlogd",svc="y"}` {
		t.Errorf("labels = %s", out.Labels)
	}
	if LabelValue(out, "job") != "ctlogd" || LabelValue(out, "code") != "2xx" {
		t.Errorf("LabelValue lookup failed on %s", out.Labels)
	}
	if LabelValue(out, "absent") != "" {
		t.Error("absent label should be empty")
	}
	// Escaped values survive the relabelling round trip.
	evil := Sample{Name: "m", Labels: FormatLabels([]string{"p", "a\\b\n\"c\""})}
	out, err = WithLabels(evil, "job", "j")
	if err != nil {
		t.Fatal(err)
	}
	if LabelValue(out, "p") != "a\\b\n\"c\"" {
		t.Errorf("escaped value corrupted: %q", LabelValue(out, "p"))
	}
}
