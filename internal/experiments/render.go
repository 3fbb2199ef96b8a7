package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"stalecert/internal/core"
	"stalecert/internal/obs"
	"stalecert/internal/report"
)

// artifactNames lists the paper's tables and figures and the two §2.4/§7
// extensions, in the order WriteAll prints them.
func artifactNames() []string {
	return []string{
		"table3", "table4", "table5", "table6", "table7",
		"figure4", "figure5a", "figure5b", "figure6", "figure7", "figure8", "figure9",
		"revocation", "mitigations",
	}
}

// WriteArtifact writes one named artifact, tables as aligned text or, with
// csv, as CSV.
func (r *Results) WriteArtifact(w io.Writer, name string, csv bool) error {
	switch name {
	case "table3":
		emit(w, r.Table3(), csv)
	case "table4":
		emit(w, r.Table4(), csv)
	case "table5":
		t, _ := r.Table5(7, 100_000, 0.01)
		emit(w, t, csv)
	case "table6":
		emit(w, r.Table6(7), csv)
	case "table7":
		emit(w, r.Table7(), csv)
	case "figure4":
		emit(w, r.Figure4(), csv)
	case "figure5a":
		emit(w, r.Figure5a(), csv)
	case "figure5b":
		emit(w, r.Figure5b(), csv)
	case "figure6":
		fmt.Fprint(w, r.Figure6().Render())
		med := r.Figure6Medians()
		fmt.Fprintf(w, "medians: registrant=%.0fd managed=%.0fd keyCompromise=%.0fd\n",
			med[core.MethodRegistrantChange], med[core.MethodManagedTLS], med[core.MethodKeyCompromise])
	case "figure7":
		fmt.Fprint(w, r.Figure7().Render())
	case "figure8":
		fmt.Fprint(w, r.Figure8().Render())
		at90 := r.Figure8At(90)
		fmt.Fprintf(w, "survival at 90d: registrant=%.1f%% managed=%.1f%% keyCompromise=%.1f%%\n",
			100*at90[core.MethodRegistrantChange], 100*at90[core.MethodManagedTLS], 100*at90[core.MethodKeyCompromise])
	case "figure9":
		emit(w, r.Figure9Table(nil), csv)
	case "revocation":
		emit(w, r.RevocationEffectiveness(), csv)
	case "mitigations":
		emit(w, r.MitigationsTable(1), csv)
	default:
		return fmt.Errorf("unknown artifact %q; known: %v", name, artifactNames())
	}
	return nil
}

func emit(w io.Writer, t *report.Table, csv bool) {
	if csv {
		fmt.Fprint(w, t.CSV())
		return
	}
	fmt.Fprint(w, t.Render())
}

// WriteAll writes every artifact, each followed by a blank line, then the
// headline.
func (r *Results) WriteAll(w io.Writer, csv bool) {
	for _, name := range artifactNames() {
		_ = r.WriteArtifact(w, name, csv) // every listed name is known
		fmt.Fprintln(w)
	}
	r.WriteHeadline(w)
}

// WriteHeadline writes the 90-day maximum-lifetime estimate.
func (r *Results) WriteHeadline(w io.Writer) {
	h := r.Headline()
	fmt.Fprintln(w, "== Headline: 90-day maximum lifetime ==")
	methods := make([]core.Method, 0, len(h.DayReductionPct))
	for m := range h.DayReductionPct {
		methods = append(methods, m)
	}
	sort.Slice(methods, func(i, j int) bool { return methods[i] < methods[j] })
	for _, m := range methods {
		fmt.Fprintf(w, "%-26s stale certs -%.1f%%  staleness-days -%.1f%%\n",
			m, h.CertReductionPct[m], h.DayReductionPct[m])
	}
	fmt.Fprintf(w, "overall staleness-day reduction: %.1f%%\n", h.OverallDayReductionPct)
	fmt.Fprintf(w, "new third-party stale e2LDs per day (sim scale): %.1f\n", h.NewStaleE2LDsPerDay)
}

// jsonReport is WriteReport's wire form. Maps are keyed by method name.
type jsonReport struct {
	Domains      int                `json:"domains"`
	Stages       obs.StageJSON      `json:"stages"`
	Certificates int                `json:"certificates"`
	Detections   map[string]int     `json:"detections"`
	DailyE2LDs   map[string]float64 `json:"daily_e2lds"`
	Medians      map[string]float64 `json:"staleness_median_days"`
	SurvivalAt90 map[string]float64 `json:"survival_at_90d"`
	Headline90   map[string]float64 `json:"headline_90d_day_reduction_pct"`
	Overall90Pct float64            `json:"overall_90d_day_reduction_pct"`
}

// WriteReport writes the machine-readable run summary as indented JSON:
// dataset sizes, the stage timing tree, Table 4 counts and daily rates,
// staleness medians, survival at 90 days and the 90-day-cap headline.
func (r *Results) WriteReport(w io.Writer) error {
	h := r.Headline()
	rep := jsonReport{
		Domains:      r.World.DomainCount(),
		Stages:       r.StageTree(),
		Certificates: r.Corpus.Len(),
		Detections:   map[string]int{},
		DailyE2LDs:   map[string]float64{},
		Medians:      map[string]float64{},
		SurvivalAt90: map[string]float64{},
		Headline90:   map[string]float64{},
		Overall90Pct: h.OverallDayReductionPct,
	}
	for _, row := range r.Table4Rows() {
		rep.Detections[row.Method.String()] = row.Certs
		rep.DailyE2LDs[row.Method.String()] = row.E2LDsPerDay()
	}
	for m, v := range r.Figure6Medians() {
		rep.Medians[m.String()] = v
	}
	for m, v := range r.Figure8At(90) {
		rep.SurvivalAt90[m.String()] = v
	}
	for m, v := range h.DayReductionPct {
		rep.Headline90[m.String()] = v
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
