// Command experiments regenerates the paper's tables and figures over a
// simulated world.
//
// Usage:
//
//	experiments [-scale quick|test|full] [-seed N] [-artifact NAME | -all | -headline]
//	            [observability flags: obs.BindFlags]
//
// Artifacts: table3 table4 table5 table6 table7
//
//	figure4 figure5a figure5b figure6 figure7 figure8 figure9
//
// Example:
//
//	experiments -scale full -all > experiments.txt
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"stalecert"
	"stalecert/internal/core"
	"stalecert/internal/obs"
	"stalecert/internal/simtime"
)

func main() {
	scale := flag.String("scale", "test", "simulation scale: quick, test, or full")
	seed := flag.Int64("seed", 1, "simulation seed")
	artifact := flag.String("artifact", "", "single artifact to print (e.g. table4, figure6)")
	all := flag.Bool("all", false, "print every table and figure")
	headline := flag.Bool("headline", false, "print the headline 90-day-cap estimate")
	csv := flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
	stages := flag.Bool("stages", false, "print the per-stage timing tree to stderr")
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()

	logger, stopDebug := obsFlags.Setup("experiments")
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		_ = stopDebug(sctx)
	}()

	s, err := scenarioFor(*scale)
	if err != nil {
		logger.Error("bad scenario", "err", err)
		os.Exit(2)
	}
	s.Seed = *seed

	logger.Info("simulating", "start", s.Start.String(), "end", s.End.String(), "scale", *scale, "seed", *seed)
	r := stalecert.Run(s)
	logger.Info("pipeline complete", "corpus", r.Corpus.Len(),
		"revoked_all", len(r.RevokedAll), "key_compromise", len(r.KeyComp),
		"registrant_change", len(r.RegChange), "managed_tls", len(r.Managed))
	if *stages {
		fmt.Fprint(os.Stderr, r.StageTree().Render())
	}

	switch {
	case *headline:
		printHeadline(r)
	case *all:
		for _, name := range artifactNames() {
			printArtifact(r, name, *csv)
			fmt.Println()
		}
		printHeadline(r)
	case *artifact != "":
		printArtifact(r, *artifact, *csv)
	default:
		printArtifact(r, "table4", *csv)
		fmt.Println()
		printHeadline(r)
	}
}

func scenarioFor(scale string) (stalecert.Scenario, error) {
	switch scale {
	case "quick":
		s := stalecert.QuickScenario()
		s.Start = simtime.MustParse("2019-01-01")
		return s, nil
	case "test":
		s := stalecert.DefaultScenario()
		s.Start = simtime.MustParse("2016-01-01")
		s.BaseDailyRegistrations = 2
		s.AnnualRegistrationGrowth = 1.12
		return s, nil
	case "full":
		return stalecert.DefaultScenario(), nil
	}
	return stalecert.Scenario{}, fmt.Errorf("unknown scale %q (want quick, test, or full)", scale)
}

func artifactNames() []string {
	return []string{
		"table3", "table4", "table5", "table6", "table7",
		"figure4", "figure5a", "figure5b", "figure6", "figure7", "figure8", "figure9",
		"revocation", "mitigations",
	}
}

func printArtifact(r *stalecert.Results, name string, csv bool) {
	switch name {
	case "table3":
		emit(r.Table3(), csv)
	case "table4":
		emit(r.Table4(), csv)
	case "table5":
		t, _ := r.Table5(7, 100_000, 0.01)
		emit(t, csv)
	case "table6":
		emit(r.Table6(7), csv)
	case "table7":
		emit(r.Table7(), csv)
	case "figure4":
		emit(r.Figure4(), csv)
	case "figure5a":
		emit(r.Figure5a(), csv)
	case "figure5b":
		emit(r.Figure5b(), csv)
	case "figure6":
		fmt.Print(r.Figure6().Render())
		med := r.Figure6Medians()
		fmt.Printf("medians: registrant=%.0fd managed=%.0fd keyCompromise=%.0fd\n",
			med[core.MethodRegistrantChange], med[core.MethodManagedTLS], med[core.MethodKeyCompromise])
	case "figure7":
		fmt.Print(r.Figure7().Render())
	case "figure8":
		fmt.Print(r.Figure8().Render())
		at90 := r.Figure8At(90)
		fmt.Printf("survival at 90d: registrant=%.1f%% managed=%.1f%% keyCompromise=%.1f%%\n",
			100*at90[core.MethodRegistrantChange], 100*at90[core.MethodManagedTLS], 100*at90[core.MethodKeyCompromise])
	case "figure9":
		emit(r.Figure9Table(nil), csv)
	case "revocation":
		emit(r.RevocationEffectiveness(), csv)
	case "mitigations":
		emit(r.MitigationsTable(1), csv)
	default:
		fmt.Fprintf(os.Stderr, "unknown artifact %q; known: %v\n", name, artifactNames())
		os.Exit(2)
	}
}

type renderable interface {
	Render() string
	CSV() string
}

func emit(t renderable, csv bool) {
	if csv {
		fmt.Print(t.CSV())
		return
	}
	fmt.Print(t.Render())
}

func printHeadline(r *stalecert.Results) {
	h := r.Headline()
	fmt.Println("== Headline: 90-day maximum lifetime ==")
	methods := make([]core.Method, 0, len(h.DayReductionPct))
	for m := range h.DayReductionPct {
		methods = append(methods, m)
	}
	sort.Slice(methods, func(i, j int) bool { return methods[i] < methods[j] })
	for _, m := range methods {
		fmt.Printf("%-26s stale certs -%.1f%%  staleness-days -%.1f%%\n",
			m, h.CertReductionPct[m], h.DayReductionPct[m])
	}
	fmt.Printf("overall staleness-day reduction: %.1f%%\n", h.OverallDayReductionPct)
	fmt.Printf("new third-party stale e2LDs per day (sim scale): %.1f\n", h.NewStaleE2LDsPerDay)
}
