// Command experiments regenerates the paper's tables and figures over a
// simulated world, or prints the run's JSON report.
//
// Usage:
//
//	experiments [-scale quick|test|full] [-seed N] [-artifact NAME | -all | -headline | -json]
//	            [-csv] [-stages] [-debug-addr ADDR] [-log-format text|json] [-log-level info]
//
// Artifacts: table3 table4 table5 table6 table7
//
//	figure4 figure5a figure5b figure6 figure7 figure8 figure9
//	revocation mitigations
//
// With none of -artifact, -all, -headline or -json it prints Table 4 and
// the headline. internal/experiments/testdata holds the -all output at
// -scale test and -scale full.
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
	"time"

	"stalecert"
	"stalecert/internal/obs"
)

func main() {
	scale := flag.String("scale", "test", "simulation scale: quick, test, or full")
	seed := flag.Int64("seed", 1, "simulation seed")
	artifact := flag.String("artifact", "", "single artifact to print (e.g. table4, figure6)")
	all := flag.Bool("all", false, "print every table and figure")
	headline := flag.Bool("headline", false, "print the headline 90-day-cap estimate")
	asJSON := flag.Bool("json", false, "print the JSON report: sizes, stage timings, Table 4, medians, survival, headline")
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

	s, err := stalecert.ScenarioFor(*scale)
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
	case *asJSON:
		if err := r.WriteReport(os.Stdout); err != nil {
			logger.Error("encode report", "err", err)
			os.Exit(1)
		}
	case *headline:
		r.WriteHeadline(os.Stdout)
	case *all:
		r.WriteAll(os.Stdout, *csv)
	case *artifact != "":
		if err := r.WriteArtifact(os.Stdout, *artifact, *csv); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	default:
		_ = r.WriteArtifact(os.Stdout, "table4", *csv) // a known name
		fmt.Println()
		r.WriteHeadline(os.Stdout)
	}
}
