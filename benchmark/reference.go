package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"stalecert/internal/loadgen"
)

// The sandbox this benchmark is gated on is a two-vCPU guest whose effective
// speed moves by a third for minutes at a time and by more for seconds, with
// nothing the guest can observe announcing it. Ten identical runs read by the
// clock spread up to 53%, and the medians of two such sets taken twenty-four
// minutes apart differed by 13-50% (README, "Measured spread"), which no
// bound up to the permitted quarter gates. So every run also
// measures a reference in the same seconds: a small HTTP server built from
// the standard library only, which no change to the repository can make
// faster or slower, answering the same two clients over the same loopback in
// short turns between the fleet's. One rule then applies to every end-to-end
// number: speed is the reference's rate over its nominal rate, a rate is
// divided by it and a time is multiplied by it. The readings by the clock are
// kept in every report's notes.

// refNominalRPS is the reference server's rate under `clients` closed-loop
// clients on a quiet run of the sandbox. Only ratios to it matter when two
// commits are compared; the constant makes the scaled numbers read like the
// sandbox's own.
const refNominalRPS = 10000.0

// Turn lengths of a measured window: fleet traffic for fleetTurn, reference
// traffic for refTurn, and so on. Short enough that both see the same
// machine (with turns of seconds the scaled numbers spread as much as the
// raw ones), long enough that the one request per client that straddles a
// switch is a small share. The cycle is deliberately not a divisor or
// multiple of staleapid's 200 ms ingest interval: with a 200 ms cycle each
// ingest burst of ingest-mixed fell in the same turn for a whole run, and
// which one differed from run to run.
const (
	fleetTurn = 130 * time.Millisecond
	refTurn   = 45 * time.Millisecond
)

// refKeys is how many distinct documents the reference serves.
const refKeys = 1024

// refDoc has the shape and size of a /v1/cert response.
type refDoc struct {
	Fingerprint string   `json:"fingerprint"`
	Serial      uint64   `json:"serial"`
	Issuer      uint16   `json:"issuer"`
	Names       []string `json:"names"`
	NotBefore   string   `json:"not_before"`
	NotAfter    string   `json:"not_after"`
}

// refServerMain is `benchmark refserver`: the reference the fleet is
// measured against. A request does the kinds of work a cached staleapid read
// does — route match, request ID, two labelled-counter lookups behind a
// read-write lock, a map hit, indented JSON, a ten-attribute access-log line
// to stderr — with the standard library alone, in a process of its own, so
// that a slower machine slows it as it slows the fleet.
func refServerMain(args []string) int {
	fs := flag.NewFlagSet("refserver", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	debugAddr := fs.String("debug-addr", "", "second listener, for /readyz, as the daemons have")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	docs := make(map[string]*refDoc, refKeys)
	for i := 0; i < refKeys; i++ {
		k := refKey(i)
		docs[k] = &refDoc{Fingerprint: hex.EncodeToString(make([]byte, 32)), Serial: uint64(i + 1), Issuer: 1,
			Names: []string{k + ".example.com", "www." + k + ".example.com"}, NotBefore: "2022-06-01", NotAfter: "2023-07-04"}
	}
	var mu sync.RWMutex
	counters := make(map[string]*atomic.Int64)
	count := func(family, route string) {
		label := fmt.Sprintf("%s{service=%q,route=%q,code=%q}", family, "refserver", route, "2xx")
		mu.RLock()
		c := counters[label]
		mu.RUnlock()
		if c == nil {
			mu.Lock()
			if c = counters[label]; c == nil {
				c = new(atomic.Int64)
				counters[label] = c
			}
			mu.Unlock()
		}
		c.Add(1)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	mux.HandleFunc("GET /v1/ref/{key}", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var id [16]byte
		_, _ = rand.Read(id[:]) // never fails on Linux
		requestID := hex.EncodeToString(id[:])
		mu.RLock()
		doc := docs[r.PathValue("key")]
		mu.RUnlock()
		if doc == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Traceparent", requestID)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc) // a client that hung up is the client's failed request
		count("http_requests_total", r.Pattern)
		count("http_request_seconds", r.Pattern)
		logger.Info("request", "service", "refserver", "method", r.Method, "path", r.URL.Path, "route", r.Pattern,
			"status", http.StatusOK, "duration", time.Since(start), "remote", r.RemoteAddr,
			"request_id", requestID, "trace_id", requestID, "user_agent", r.UserAgent())
	})
	errs := make(chan error, 2) // one per listener
	for _, a := range []string{*addr, *debugAddr} {
		if a != "" {
			go func() { errs <- http.ListenAndServe(a, mux) }()
		}
	}
	fmt.Fprintln(os.Stderr, <-errs)
	return 1
}

func refKey(i int) string { return fmt.Sprintf("ref%04d", i) }

// reference is the harness's side of the reference server: the process, the
// two connections to it, and the switch that says whose turn it is.
type reference struct {
	fleet *fleet
	url   string
	hc    *http.Client
	keys  *keyRing
	inRef atomic.Bool // it is the reference's turn
}

// startReference spawns the reference server from this very binary and waits
// for it. It outlives the fleets of a run; stop ends it.
func startReference(ctx context.Context, dir string, seed uint64) (*reference, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := newFleet(dir)
	if err != nil {
		return nil, err
	}
	d, err := f.spawn("refserver", self, "tcp", "refserver")
	if err == nil {
		err = d.waitReady(ctx, 10*time.Second)
	}
	if err != nil {
		err = fmt.Errorf("%w\n%s", err, f.stderrTails(15))
		f.stop()
		return nil, err
	}
	keys, err := newKeyRing(seed^0x726566, refKeys, 1.1) // "ref": skewed like the hot keys
	if err != nil {
		f.stop()
		return nil, err
	}
	return &reference{fleet: f, url: "http://" + d.Addr, hc: newLoadClient(clients), keys: keys}, nil
}

func (r *reference) stop() {
	r.hc.CloseIdleConnections()
	r.fleet.stop()
}

// do sends one request to the reference server and records it in rec.
func (r *reference) do(ctx context.Context, rec *recorder) (int64, error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url+"/v1/ref/"+refKey(r.keys.pick()), nil)
	if err != nil {
		return 0, err
	}
	n, err := doDiscard(r.hc, req)
	rec.record(time.Since(start), err != nil)
	return n, err
}

// interleave makes ops take turns with the reference: while it is the
// reference's turn, a client that asks for its next operation sends a
// reference request instead. A client finishes the request it is in before
// it changes sides, and every request is accounted to the side it was sent
// to (the reference's in rec), so nothing is cut at a switch.
func (r *reference) interleave(ops []loadgen.Op, rec *recorder) []loadgen.Op {
	out := make([]loadgen.Op, len(ops))
	for i, op := range ops {
		do := op.Do
		out[i] = op
		out[i].Do = func(ctx context.Context) (int64, error) {
			if r.inRef.Load() {
				return r.do(ctx, rec)
			}
			return do(ctx)
		}
	}
	return out
}

// alternate gives the turn to the fleet for fleetTurn and to the reference
// for refTurn, over and over until ctx ends, and leaves it with the fleet.
func (r *reference) alternate(ctx context.Context) {
	defer r.inRef.Store(false)
	turn := time.NewTimer(fleetTurn)
	defer turn.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-turn.C:
		}
		if r.inRef.Load() {
			r.inRef.Store(false)
			turn.Reset(fleetTurn)
		} else {
			r.inRef.Store(true)
			turn.Reset(refTurn)
		}
	}
}

// speed is how fast the machine ran while ref was measured, as a share of
// the reference's nominal rate.
func speed(ref windowStats) float64 { return ref.RPS / refNominalRPS }
