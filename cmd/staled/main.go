// Command staled runs the full stale-certificate measurement pipeline over a
// simulated world and prints a compact report: dataset sizes, Table 4 daily
// rates, staleness medians, survival at 90 days, and the 90-day-cap headline.
//
// Usage:
//
//	staled [-scale quick|test|full] [-seed N] [-json] [observability flags: obs.BindFlags]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"stalecert"
	"stalecert/internal/core"
	"stalecert/internal/obs"
	"stalecert/internal/simtime"
)

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

func main() {
	scale := flag.String("scale", "test", "simulation scale: quick, test, or full")
	seed := flag.Int64("seed", 1, "simulation seed")
	asJSON := flag.Bool("json", false, "emit a JSON report")
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()

	logger, stopDebug := obsFlags.Setup("staled")
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		_ = stopDebug(sctx)
	}()

	s := stalecert.DefaultScenario()
	switch *scale {
	case "quick":
		s = stalecert.QuickScenario()
		s.Start = simtime.MustParse("2019-01-01")
	case "test":
		s.Start = simtime.MustParse("2016-01-01")
		s.BaseDailyRegistrations = 2
		s.AnnualRegistrationGrowth = 1.12
	case "full":
	default:
		logger.Error("unknown scale", "scale", *scale)
		os.Exit(2)
	}
	s.Seed = *seed

	r := stalecert.Run(s)
	med := r.Figure6Medians()
	at90 := r.Figure8At(90)
	h := r.Headline()

	if *asJSON {
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
		for m, v := range med {
			rep.Medians[m.String()] = v
		}
		for m, v := range at90 {
			rep.SurvivalAt90[m.String()] = v
		}
		for m, v := range h.DayReductionPct {
			rep.Headline90[m.String()] = v
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			logger.Error("encode report", "err", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("world: %d e2LDs, %d certificates (deduplicated CT)\n\n", r.World.DomainCount(), r.Corpus.Len())
	fmt.Print(r.Table4().Render())
	fmt.Println()
	fmt.Printf("staleness medians: registrant=%.0fd managed=%.0fd keyCompromise=%.0fd\n",
		med[core.MethodRegistrantChange], med[core.MethodManagedTLS], med[core.MethodKeyCompromise])
	fmt.Printf("became stale after 90d of issuance: registrant=%.1f%% managed=%.1f%% keyCompromise=%.1f%%\n",
		100*at90[core.MethodRegistrantChange], 100*at90[core.MethodManagedTLS], 100*at90[core.MethodKeyCompromise])
	fmt.Printf("90-day cap: overall staleness-day reduction %.1f%%\n", h.OverallDayReductionPct)
	fmt.Println()
	fmt.Println("pipeline stages:")
	fmt.Print(r.StageTree().Render())
}
