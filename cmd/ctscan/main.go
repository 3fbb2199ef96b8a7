// Command ctscan scrapes a CT log over HTTP, verifying the signed tree head
// (and optionally every entry's inclusion proof), and prints a summary or
// the full entry list.
//
// Usage:
//
//	ctscan -log http://127.0.0.1:8784 [-from N] [-verify] [-print]
//	       [observability flags: obs.BindFlags] [resilience flags: resil.Flags.BindFlags]
//
// Scrapes go through the resilience layer: transient log failures (connection
// resets, 5xx, torn bodies) are retried with backoff before the scrape fails.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"stalecert/internal/ctlog"
	"stalecert/internal/obs"
	"stalecert/internal/resil"
)

func main() {
	logURL := flag.String("log", "http://127.0.0.1:8784", "base URL of the CT log")
	from := flag.Uint64("from", 0, "resume scraping at this entry index")
	verify := flag.Bool("verify", false, "audit every entry's inclusion proof against the STH")
	print := flag.Bool("print", false, "print each entry")
	timeout := flag.Duration("timeout", 30*time.Second, "overall scrape timeout")
	obsFlags := obs.BindFlags(flag.CommandLine)
	var rf resil.Flags
	rf.BindFlags(flag.CommandLine)
	flag.Parse()

	logger, stopDebug := obsFlags.Setup("ctscan")
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		_ = stopDebug(sctx)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	client := ctlog.NewClientWithOptions(*logURL, nil, rf.Options("ctscan"))
	entries, sth, err := client.Scrape(ctx, ctlog.ScrapeOptions{From: *from, VerifyInclusion: *verify})
	if err != nil {
		logger.Error("scrape failed", "log", *logURL, "err", err)
		os.Exit(1)
	}

	logger.Info("scraped log", "name", sth.LogName, "size", sth.Size,
		"root", sth.Root.String(), "scraped", len(entries), "verified", *verify)
	if *print {
		for _, e := range entries {
			fmt.Printf("%8d  %s  %v\n", e.Index, e.Timestamp, e.Cert.Names)
		}
	}

	// Per-issuer summary.
	byIssuer := map[uint16]int{}
	precerts := 0
	for _, e := range entries {
		byIssuer[uint16(e.Cert.Issuer)]++
		if e.Cert.Precert {
			precerts++
		}
	}
	fmt.Printf("entries: %d (%d precerts) across %d issuers\n", len(entries), precerts, len(byIssuer))
}
