// Package resil is the fleet-wide resilience layer, one outbound HTTP client
// stack: an http.RoundTripper (Transport) running policy-driven retries with
// exponential backoff and Retry-After honoring (Policy), per-peer three-state
// circuit breakers exported as obs metrics and a /v1/breakers debug endpoint
// (Breaker/BreakerSet), and deterministic fault injection for chaos tests
// (Chaos/ChaosListener).
//
// The composition order for an instrumented client is
//
//	resil.Transport → obs.Transport → resil.Chaos (tests only) → net/http
//
// so every attempt — including injected and retried ones — is individually
// traced and counted by the obs layer, while the caller above the resilient
// transport sees only the final outcome.
//
// Everything is stdlib-only and safe for concurrent use.
package resil

import (
	"flag"
	"net/http"

	"stalecert/internal/obs"
)

// Options configures InstrumentClient / NewHTTPClient for one service.
type Options struct {
	// Service labels every metric family, the call spans and the retry
	// counter.
	Service string
	// Policy drives the retry loop (zero value = documented defaults).
	Policy Policy
	// Breaker, when non-nil, gates every attempt through the peer's circuit
	// in this shared per-peer family; nil disables circuit breaking.
	Breaker *BreakerSet
	// Chaos, when non-nil, injects faults between the resilient transport
	// and the instrumented base — test wiring only.
	Chaos *Chaos
	// Spans, when non-nil, receives the call and per-attempt client spans
	// instead of the process-wide obs.DefaultSpans store (fleet simulations
	// and tests give each in-process daemon its own store).
	Spans *obs.SpanStore
}

// InstrumentClient wraps hc (nil = default-client semantics) so every call
// goes through the full resilience stack: retries, per-peer circuit
// breaking, per-attempt obs instrumentation, and optional chaos injection.
// The original client is not mutated; a client already carrying a
// resil.Transport is returned unchanged.
func InstrumentClient(hc *http.Client, opts Options) *http.Client {
	if hc != nil {
		if _, ok := hc.Transport.(*Transport); ok {
			return hc // already resilient
		}
	}
	// Chaos sits at the very bottom, beneath the obs transport, so injected
	// faults are traced and counted per attempt exactly like wild ones.
	if opts.Chaos != nil {
		c := http.Client{}
		if hc != nil {
			c = *hc
		}
		c.Transport = opts.Chaos.WithBase(c.Transport)
		hc = &c
	}
	// Per-attempt instrumentation next, so each retry is its own traced,
	// counted client call.
	instrumented := obs.InstrumentClient(hc, opts.Service)
	if ot, ok := instrumented.Transport.(*obs.Transport); ok && opts.Spans != nil {
		ot.Spans = opts.Spans
	}
	wrapped := *instrumented
	wrapped.Transport = &Transport{Base: instrumented.Transport, Service: opts.Service, Policy: opts.Policy,
		Breakers: opts.Breaker, Spans: opts.Spans}
	return &wrapped
}

// NewHTTPClient returns a fresh fully-instrumented client.
func NewHTTPClient(opts Options) *http.Client { return InstrumentClient(nil, opts) }

// Flags is the standard daemon flag set for the resilience layer. Bind it
// next to obs.Flags in every main:
//
//	var rf resil.Flags
//	rf.BindFlags(flag.CommandLine)
//	flag.Parse()
//	hc := resil.NewHTTPClient(rf.Options("my-service"))
type Flags struct {
	// RetryMax is the total attempt budget (-retry-max, default 4).
	RetryMax int
	// BreakerThreshold is the windowed failure fraction that opens a
	// circuit (-breaker-threshold, default 0.5; 0 disables breaking).
	BreakerThreshold float64
	// ChaosSeed, when non-zero, injects ~20% faults into every outbound
	// call using the given deterministic seed (-chaos-seed, test-only).
	ChaosSeed int64
}

// BindFlags registers the resilience flags on fs.
func (f *Flags) BindFlags(fs *flag.FlagSet) {
	fs.IntVar(&f.RetryMax, "retry-max", 4, "total outbound attempt budget including the first (1 disables retries)")
	fs.Float64Var(&f.BreakerThreshold, "breaker-threshold", 0.5, "windowed failure fraction that opens a peer's circuit (0 disables breaking)")
	fs.Int64Var(&f.ChaosSeed, "chaos-seed", 0, "TEST ONLY: non-zero seed injects ~20% deterministic faults into outbound calls")
}

// Options materializes the bound flags into client options for one service.
func (f *Flags) Options(service string) Options {
	opts := Options{Service: service, Policy: Policy{MaxAttempts: f.RetryMax}, Chaos: f.Chaos()}
	if f.BreakerThreshold > 0 {
		opts.Breaker = NewBreakerSet(BreakerConfig{Service: service, Threshold: f.BreakerThreshold})
	}
	return opts
}

// Chaos returns a fresh -chaos-seed fault stream, nil when the seed is zero.
func (f *Flags) Chaos() *Chaos {
	if f.ChaosSeed == 0 {
		return nil
	}
	return NewChaos(f.ChaosSeed, DefaultRates(0.2))
}
