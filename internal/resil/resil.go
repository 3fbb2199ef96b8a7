// Package resil is the fleet-wide outbound HTTP client stack, one
// http.RoundTripper (Transport) over net/http: policy-driven retries with
// exponential backoff and Retry-After honoring (Policy), per-peer
// three-state circuit breakers exported as obs metrics and a /v1/breakers
// debug endpoint (Breaker/BreakerSet), and the client half of the
// observability layer. Each logical call is a "call" span; each attempt —
// retried ones included — sends its own traceparent and is individually
// traced as a client span and counted in http_client_requests_total and
// http_client_request_seconds, while the caller sees only the final outcome.
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
	// Spans, when non-nil, receives the call and per-attempt client spans
	// instead of the process-wide obs.DefaultSpans store (fleet simulations
	// and tests give each in-process daemon its own store).
	Spans *obs.SpanStore
}

// InstrumentClient wraps hc (nil = default-client semantics) so every call
// goes through the full stack: retries, per-peer circuit breaking and
// per-attempt instrumentation. The original client is not mutated; a client
// already carrying a resil.Transport is returned unchanged.
func InstrumentClient(hc *http.Client, opts Options) *http.Client {
	var wrapped http.Client
	if hc != nil {
		if _, ok := hc.Transport.(*Transport); ok {
			return hc // already resilient
		}
		wrapped = *hc
	}
	wrapped.Transport = &Transport{Base: wrapped.Transport, Service: opts.Service, Policy: opts.Policy,
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
}

// BindFlags registers -retry-max on fs.
func (f *Flags) BindFlags(fs *flag.FlagSet) {
	fs.IntVar(&f.RetryMax, "retry-max", 4, "total outbound attempt budget including the first (1 disables retries)")
}

// Options materializes the bound flags into client options for one service,
// with per-peer circuit breakers at BreakerConfig's defaults.
func (f *Flags) Options(service string) Options {
	return Options{Service: service, Policy: Policy{MaxAttempts: f.RetryMax},
		Breaker: NewBreakerSet(BreakerConfig{Service: service})}
}
