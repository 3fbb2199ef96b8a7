package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// This file is the Prometheus text exposition format, both directions: the
// writer every daemon's /metrics serves (WriteSamples, with the label-set and
// float renderings it shares with the registry) and its inverse, the parser
// obsagg federates with (ParseProm, WithLabels, LabelValue).

// WriteProm writes the registry snapshot in Prometheus text format.
func WriteProm(w io.Writer, r *Registry) { WriteSamples(w, r.Snapshot()) }

// WriteSamples writes samples (sorted by family then labels, as Snapshot and
// ParseProm return them) in Prometheus text format. Consecutive samples of
// one family share a single TYPE comment.
func WriteSamples(w io.Writer, samples []Sample) {
	lastFamily := ""
	for _, s := range samples {
		if s.Name != lastFamily {
			fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Kind)
			lastFamily = s.Name
		}
		switch s.Kind {
		case KindCounter, KindGauge:
			fmt.Fprintf(w, "%s%s %s\n", s.Name, s.Labels, FormatFloat(s.Value))
		case KindHistogram:
			for _, b := range s.Buckets {
				if b.Exemplar != nil {
					// OpenMetrics exemplar syntax: the bucket's last sampled
					// observation with the trace ID it can be explained by.
					fmt.Fprintf(w, "%s_bucket%s %d # {trace_id=\"%s\"} %s\n",
						s.Name, WithLE(s.Labels, b.UpperBound), b.Count,
						escapeLabelValue(b.Exemplar.TraceID), FormatFloat(b.Exemplar.Value))
					continue
				}
				fmt.Fprintf(w, "%s_bucket%s %d\n", s.Name, WithLE(s.Labels, b.UpperBound), b.Count)
			}
			fmt.Fprintf(w, "%s_sum%s %s\n", s.Name, s.Labels, FormatFloat(s.Sum))
			fmt.Fprintf(w, "%s_count%s %d\n", s.Name, s.Labels, s.Count)
		}
	}
}

// WithLE splices the le label into an existing label set.
func WithLE(labels string, bound float64) string {
	le := `le="` + formatLE(bound) + `"`
	if labels == "" {
		return "{" + le + "}"
	}
	return labels[:len(labels)-1] + "," + le + "}"
}

func formatLE(bound float64) string {
	if math.IsInf(bound, 1) {
		return "+Inf"
	}
	return FormatFloat(bound)
}

// FormatFloat renders a sample value as the exposition writes it: integral
// values without an exponent, everything else in the shortest form that
// parses back exactly.
func FormatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// FormatLabels renders label pairs as a deterministic Prometheus label set.
func FormatLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		// A copy goes into the message: boxing pairs itself would make every
		// registry lookup's variadic label slice escape to the heap.
		panic(fmt.Sprintf("obs: odd label pairs %q", slices.Clone(pairs)))
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// ParseProm parses Prometheus text exposition format into samples, the
// inverse of WriteSamples: counters and gauges become one sample each
// (kind from the TYPE comment; untyped series parse as gauges), and
// histogram _bucket/_sum/_count series are reassembled into one histogram
// sample per label set. Label values are unescaped; returned samples are
// sorted by family then labels with canonically re-rendered label sets, so
// ParseProm(WriteProm(reg)) round-trips Snapshot exactly.
func ParseProm(r io.Reader) ([]Sample, error) {
	kinds := make(map[string]Kind)
	type hkey struct{ family, labels string }
	order := []string{}
	flat := make(map[string]*Sample) // counters and gauges by family+labels
	hists := make(map[hkey]*Sample)  // histograms being reassembled
	horder := []hkey{}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				switch fields[3] {
				case "counter":
					kinds[fields[2]] = KindCounter
				case "gauge":
					kinds[fields[2]] = KindGauge
				case "histogram":
					kinds[fields[2]] = KindHistogram
				}
			}
			continue
		}
		name, labels, value, ex, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: parse line %d: %w", lineNo, err)
		}
		if family, suffix := histogramFamily(name, kinds); family != "" {
			pairs, err := LabelPairs(labels)
			if err != nil {
				return nil, fmt.Errorf("obs: parse line %d: %w", lineNo, err)
			}
			le := ""
			trimmed := pairs[:0]
			for i := 0; i < len(pairs); i += 2 {
				if pairs[i] == "le" {
					le = pairs[i+1]
					continue
				}
				trimmed = append(trimmed, pairs[i], pairs[i+1])
			}
			key := hkey{family, FormatLabels(trimmed)}
			h := hists[key]
			if h == nil {
				h = &Sample{Name: family, Labels: key.labels, Kind: KindHistogram}
				hists[key] = h
				horder = append(horder, key)
			}
			// Counts travel as uint64: one that is negative, NaN or past 2^64
			// converts differently on every re-exposition.
			if suffix != "_sum" && !(value >= 0 && value < 1<<64) {
				return nil, fmt.Errorf("obs: parse line %d: bad count %v", lineNo, value)
			}
			switch suffix {
			case "_bucket":
				if le == "" {
					return nil, fmt.Errorf("obs: parse line %d: bucket without le label", lineNo)
				}
				bound, err := strconv.ParseFloat(le, 64)
				if err != nil || math.IsNaN(bound) {
					return nil, fmt.Errorf("obs: parse line %d: bad le %q", lineNo, le)
				}
				h.Buckets = append(h.Buckets, BucketCount{UpperBound: bound, Count: uint64(value), Exemplar: ex})
			case "_sum":
				h.Sum = value
			case "_count":
				h.Count = uint64(value)
			}
			continue
		}
		kind, ok := kinds[name]
		if kind == KindHistogram {
			return nil, fmt.Errorf("obs: parse line %d: %s is declared a histogram but has no _bucket/_sum/_count suffix", lineNo, name)
		}
		if !ok {
			kind = KindGauge // untyped series read back as gauges
		}
		pairs, err := LabelPairs(labels)
		if err != nil {
			return nil, fmt.Errorf("obs: parse line %d: %w", lineNo, err)
		}
		canonical := FormatLabels(pairs)
		key := name + canonical
		if _, dup := flat[key]; !dup {
			order = append(order, key)
		}
		flat[key] = &Sample{Name: name, Labels: canonical, Kind: kind, Value: value}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: scan exposition: %w", err)
	}

	families := make(map[string]Kind, len(horder))
	for _, k := range horder {
		families[k.family] = KindHistogram
	}
	out := make([]Sample, 0, len(order)+len(horder))
	for _, k := range order {
		// A bare sample inside a histogram family's namespace, whichever was
		// declared first, would share the family's one TYPE line or be
		// absorbed into it on re-exposition.
		s := flat[k]
		family, _ := histogramFamily(s.Name, families)
		if families[s.Name] == KindHistogram || family != "" {
			return nil, fmt.Errorf("obs: sample %s collides with a histogram family", s.Name)
		}
		out = append(out, *s)
	}
	for _, k := range horder {
		h := hists[k]
		sort.SliceStable(h.Buckets, func(i, j int) bool { return h.Buckets[i].UpperBound < h.Buckets[j].UpperBound })
		out = append(out, *h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	return out, nil
}

// ValidMetricName reports whether s is a legal Prometheus metric name
// (colons allowed, for the recording-rule convention).
func ValidMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// histogramFamily reports whether name is a series of a family declared as a
// histogram, returning the base family and the matched suffix.
func histogramFamily(name string, kinds map[string]Kind) (family, suffix string) {
	for _, s := range []string{"_bucket", "_sum", "_count"} {
		base, ok := strings.CutSuffix(name, s)
		if ok && kinds[base] == KindHistogram {
			return base, s
		}
	}
	return "", ""
}

// parseSampleLine splits `name{labels} value [# {exlabels} exvalue]` (labels
// and exemplar optional) without breaking on escaped quotes or commas inside
// label values.
func parseSampleLine(line string) (name, labels string, value float64, ex *Exemplar, err error) {
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		name = line[:i]
		end := labelSetEnd(line[i:])
		if end < 0 {
			return "", "", 0, nil, fmt.Errorf("unterminated label set in %q", line)
		}
		labels = line[i : i+end+1]
		rest = line[i+end+1:]
	} else if sp := strings.IndexByte(line, ' '); sp >= 0 {
		name = line[:sp]
		rest = line[sp:]
	} else {
		return "", "", 0, nil, fmt.Errorf("no value in %q", line)
	}
	if !ValidMetricName(name) {
		return "", "", 0, nil, fmt.Errorf("bad metric name %q in %q", name, line)
	}
	v := strings.TrimSpace(rest)
	// OpenMetrics exemplar: everything after " # " ('#' cannot appear in a
	// value or timestamp; label values were consumed above).
	if i := strings.IndexByte(v, '#'); i >= 0 {
		ex, err = parseExemplar(strings.TrimSpace(v[i+1:]))
		if err != nil {
			return "", "", 0, nil, err
		}
		v = strings.TrimSpace(v[:i])
	}
	// Prometheus allows an optional trailing timestamp; ignore it.
	if sp := strings.IndexByte(v, ' '); sp >= 0 {
		v = v[:sp]
	}
	value, err = strconv.ParseFloat(v, 64)
	if err != nil {
		return "", "", 0, nil, fmt.Errorf("bad value %q in %q", v, line)
	}
	return name, labels, value, ex, nil
}

// parseExemplar decodes `{trace_id="..."} value` after a bucket's `#`.
func parseExemplar(s string) (*Exemplar, error) {
	if !strings.HasPrefix(s, "{") {
		return nil, fmt.Errorf("malformed exemplar %q", s)
	}
	end := labelSetEnd(s)
	if end < 0 {
		return nil, fmt.Errorf("unterminated exemplar label set in %q", s)
	}
	pairs, err := LabelPairs(s[:end+1])
	if err != nil {
		return nil, err
	}
	ex := &Exemplar{}
	for i := 0; i < len(pairs); i += 2 {
		if pairs[i] == "trace_id" {
			ex.TraceID = pairs[i+1]
		}
	}
	v := strings.TrimSpace(s[end+1:])
	if sp := strings.IndexByte(v, ' '); sp >= 0 {
		v = v[:sp] // optional exemplar timestamp
	}
	if v == "" {
		return nil, fmt.Errorf("exemplar without value in %q", s)
	}
	ex.Value, err = strconv.ParseFloat(v, 64)
	if err != nil {
		return nil, fmt.Errorf("bad exemplar value %q in %q", v, s)
	}
	return ex, nil
}

// labelSetEnd returns the index of the closing '}' of a label set starting at
// s[0] == '{', respecting quoted values with backslash escapes.
func labelSetEnd(s string) int {
	inQuote := false
	for i := 1; i < len(s); i++ {
		switch {
		case inQuote && s[i] == '\\':
			i++ // skip the escaped byte
		case s[i] == '"':
			inQuote = !inQuote
		case !inQuote && s[i] == '}':
			return i
		}
	}
	return -1
}

// LabelPairs decodes a rendered label set ("" or `{k="v",...}`) back into
// unescaped key/value pairs, the inverse of FormatLabels.
func LabelPairs(labels string) ([]string, error) {
	if labels == "" {
		return nil, nil
	}
	if len(labels) < 2 || labels[0] != '{' || labels[len(labels)-1] != '}' {
		return nil, fmt.Errorf("malformed label set %q", labels)
	}
	s := labels[1 : len(labels)-1]
	var pairs []string
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || len(s) < eq+2 || s[eq+1] != '"' {
			return nil, fmt.Errorf("malformed label in %q", labels)
		}
		key := strings.TrimSpace(s[:eq])
		if !ValidMetricName(key) {
			return nil, fmt.Errorf("bad label name %q in %q", key, labels)
		}
		rest := s[eq+2:]
		var b strings.Builder
		i := 0
		closed := false
		for i < len(rest) {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				switch rest[i+1] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(c)
					b.WriteByte(rest[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			b.WriteByte(c)
			i++
		}
		if !closed {
			return nil, fmt.Errorf("unterminated value in %q", labels)
		}
		pairs = append(pairs, key, b.String())
		s = rest[i:]
		if strings.HasPrefix(s, ",") {
			s = s[1:]
		}
	}
	return pairs, nil
}

// WithLabels returns the sample with the given label pairs set (overriding
// existing keys), re-rendered canonically.
func WithLabels(s Sample, setPairs ...string) (Sample, error) {
	pairs, err := LabelPairs(s.Labels)
	if err != nil {
		return s, err
	}
	for i := 0; i < len(setPairs); i += 2 {
		replaced := false
		for j := 0; j < len(pairs); j += 2 {
			if pairs[j] == setPairs[i] {
				pairs[j+1] = setPairs[i+1]
				replaced = true
				break
			}
		}
		if !replaced {
			pairs = append(pairs, setPairs[i], setPairs[i+1])
		}
	}
	s.Labels = FormatLabels(pairs)
	return s, nil
}

// LabelValue extracts one label's (unescaped) value from a sample, or "".
func LabelValue(s Sample, key string) string {
	pairs, err := LabelPairs(s.Labels)
	if err != nil {
		return ""
	}
	for i := 0; i < len(pairs); i += 2 {
		if pairs[i] == key {
			return pairs[i+1]
		}
	}
	return ""
}
