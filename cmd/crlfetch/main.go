// Command crlfetch performs daily CRL collections against a crld server and
// prints the per-CA coverage table (the Appendix B accounting) plus a
// revocation-reason histogram.
//
// Usage:
//
//	crlfetch -server http://127.0.0.1:8785 -cas Sectigo,DigiCert [-days 7]
//	         [observability flags: obs.BindFlags] [resilience flags: resil.Flags.BindFlags]
//
// -retry-max is the per-CRL attempt budget inside one collection day; the
// fetcher's ledger sees one outcome per CA per day whatever the attempts
// beneath it. A non-zero -chaos-seed injects deterministic faults beneath
// that client for collection-robustness experiments.
//
// With -cas omitted the built-in CA directory is fetched.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"stalecert/internal/ca"
	"stalecert/internal/crl"
	"stalecert/internal/obs"
	"stalecert/internal/resil"
)

func main() {
	server := flag.String("server", "http://127.0.0.1:8785", "crld base URL")
	cas := flag.String("cas", "", "comma-separated CA names (default: built-in directory)")
	days := flag.Int("days", 1, "number of daily collection rounds")
	timeout := flag.Duration("timeout", 30*time.Second, "overall timeout")
	obsFlags := obs.BindFlags(flag.CommandLine)
	var rf resil.Flags
	rf.BindFlags(flag.CommandLine)
	flag.Parse()

	logger, stopDebug := obsFlags.Setup("crlfetch")
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		_ = stopDebug(sctx)
	}()

	var names []string
	if *cas != "" {
		names = strings.Split(*cas, ",")
	} else {
		names = ca.NewDirectory().Names()
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	ledger := crl.NewCoverageLedger()
	fetcher := crl.NewFetcher(*server, &rf)
	fetcher.Ledger = ledger

	reasonCounts := map[crl.Reason]int{}
	var total int
	for day := 0; day < *days; day++ {
		lists, err := fetcher.FetchAll(ctx, names)
		if err != nil {
			logger.Error("fetch round failed", "day", day, "err", err)
			os.Exit(1)
		}
		total = 0
		for _, l := range lists {
			total += len(l.Entries)
			for _, e := range l.Entries {
				reasonCounts[e.Reason]++
			}
		}
	}

	fmt.Println("CA Name                      Coverage        Percent")
	fmt.Println("-------                      --------        -------")
	for _, row := range ledger.Rows() {
		fmt.Printf("%-28s %4d / %-4d     %6.2f%%\n", row.CAName, row.Succeeded, row.Attempted, row.Percent())
	}
	t := ledger.Total()
	fmt.Printf("%-28s %4d / %-4d     %6.2f%%\n", "Total Coverage", t.Succeeded, t.Attempted, t.Percent())

	fmt.Printf("\nrevocations in final round: %d\n", total)
	reasons := make([]crl.Reason, 0, len(reasonCounts))
	for r := range reasonCounts {
		reasons = append(reasons, r)
	}
	sort.Slice(reasons, func(i, j int) bool { return reasons[i] < reasons[j] })
	for _, r := range reasons {
		fmt.Printf("  %-22s %d\n", r, reasonCounts[r])
	}
}
