package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// resultSet is the end-to-end reports found at one path: values by workload
// and metric, and the operation counts.
type resultSet struct {
	values            map[string]map[string][]float64
	attempted, failed int
	incorrect         int
}

// loadResults reads one report file, or every e2e_*.json of a directory.
func loadResults(path string) (*resultSet, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "e2e_*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	rs := &resultSet{values: make(map[string]map[string][]float64)}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(raw, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if rep.Traced {
			continue
		}
		if rs.values[rep.Workload] == nil {
			rs.values[rep.Workload] = make(map[string][]float64)
		}
		for name, m := range rep.Metrics {
			rs.values[rep.Workload][name] = append(rs.values[rep.Workload][name], m.Value)
		}
		rs.attempted += rep.Attempted
		rs.failed += rep.Failed
		if !rep.Correct {
			rs.incorrect++
		}
	}
	if len(rs.values) == 0 {
		return nil, fmt.Errorf("%s: no end-to-end reports", path)
	}
	return rs, nil
}

// quartiles are the three cut points Python's statistics.quantiles(v, n=4)
// returns (the exclusive method), which is how the spread of a metric is
// defined for this benchmark. Fewer than two values have no spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := len(s) + 1
	cut := func(i int) float64 {
		j := max(1, min(i*m/4, len(s)-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// verdict words of compare.
const (
	vBetter     = "better"
	vWithin     = "within bound"
	vWorse      = "worse"
	vUnresolved = "unresolved"
)

// classify compares a metric's runs at the parent (a) with its runs at the
// change (b), in this order. worse: the median moved the wrong way by more
// than the bound. better: every run of the change beats every run of the
// parent. unresolved: the parent's own spread is wider than the bound, so a
// move inside the bound cannot be told from noise. better: the median gained
// more than both the bound and the parent's spread. Otherwise within bound.
// loss is the relative move in the wrong direction, spread the parent's
// interquartile range over its median.
func classify(spec metricSpec, a, b []float64) (verdict string, loss, spread float64) {
	q1, medA, q3 := quartiles(a)
	medB := median(b)
	if medA == 0 {
		return vUnresolved, 0, 0
	}
	sign := 1.0 // a rise is a loss
	if spec.Better == "higher" {
		sign = -1
	}
	loss = sign * (medB - medA) / medA
	spread = (q3 - q1) / medA
	allBetter := len(a)+len(b) > 2
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case loss > spec.Bound:
		return vWorse, loss, spread
	case allBetter:
		return vBetter, loss, spread
	case spread > spec.Bound:
		return vUnresolved, loss, spread
	case -loss > max(spec.Bound, spread):
		return vBetter, loss, spread
	default:
		return vWithin, loss, spread
	}
}

// compareSets prints one row per (workload, metric) and reports whether any
// is worse or the error ratio rose.
func compareSets(w io.Writer, bf *benchmarkFile, a, b *resultSet) bool {
	ok := true
	fmt.Fprintf(w, "%-16s %-12s %14s %14s %9s %9s %7s  %s\n", "workload", "metric", "median a", "median b", "change", "spread a", "bound", "verdict")
	for _, wl := range bf.Workloads {
		for _, spec := range bf.EndToEnd {
			va, vb := a.values[wl.Name][spec.Name], b.values[wl.Name][spec.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, loss, spread := classify(spec, va, vb)
			if verdict == vWorse {
				ok = false
			}
			change := -loss
			if spec.Better == "lower" {
				change = loss
			}
			fmt.Fprintf(w, "%-16s %-12s %14.4f %14.4f %+8.1f%% %8.1f%% %6.0f%%  %s\n", wl.Name, spec.Name,
				median(va), median(vb), change*100, spread*100, spec.Bound*100, verdict)
		}
	}
	ra, rb := ratio(a.failed, a.attempted), ratio(b.failed, b.attempted)
	fmt.Fprintf(w, "error_ratio: a %.6f (%d of %d), b %.6f (%d of %d)\n", ra, a.failed, a.attempted, rb, b.failed, b.attempted)
	if rb > ra+0.001 {
		fmt.Fprintln(w, "error_ratio rose by more than 0.001: worse")
		ok = false
	}
	if b.incorrect > a.incorrect {
		fmt.Fprintf(w, "%d runs of b failed a correctness check (%d of a): worse\n", b.incorrect, a.incorrect)
		ok = false
	}
	return ok
}

func ratio(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compareMain is `benchmark compare <a> <b>`: a is the parent's results, b
// the change's; each is a report file or a directory of them.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare <a.json|dir> <b.json|dir>")
		return 2
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	a, err := loadResults(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	b, err := loadResults(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if !compareSets(os.Stdout, bf, a, b) {
		return 1
	}
	return 0
}
