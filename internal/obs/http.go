package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"
)

// Process-wide debug-surface extensions (e.g. resil's /v1/breakers). Other
// packages register here from init so obs never needs to import them.
var (
	debugExtMu sync.Mutex
	debugExt   = map[string]http.Handler{}
)

// RegisterDebug mounts handler at pattern (http.ServeMux syntax) on every
// debug mux built afterwards. Intended for package init: last registration
// for a pattern wins, so re-registering is safe.
func RegisterDebug(pattern string, handler http.Handler) {
	debugExtMu.Lock()
	debugExt[pattern] = handler
	debugExtMu.Unlock()
}

// HandlerFor serves the debug surface for a registry and probe set:
//
//	/metrics      Prometheus text exposition format
//	/debug/pprof  the net/http/pprof profiles
//	/healthz      liveness (always 200 while the process serves)
//	/readyz       readiness: 200 once every registered probe passes
//
// plus any extensions added via RegisterDebug. Daemons pass DefaultHealth;
// tests and the federation aggregator construct private probe sets.
func HandlerFor(r *Registry, health *Health) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteProm(w, r)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /healthz", health.Healthz)
	mux.HandleFunc("GET /readyz", health.Readyz)
	debugExtMu.Lock()
	for pattern, h := range debugExt {
		mux.Handle(pattern, h)
	}
	debugExtMu.Unlock()
	return mux
}

// WriteJSON answers with v as 2-space-indented JSON under the given status:
// the encoding every indented JSON body the fleet serves is held to, whether
// encoded here or appended by hand (staleapid's certificates, listings and
// verdicts).
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", JSONContentType)
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// JSONContentType is the Content-Type of every WriteJSON body.
const JSONContentType = "application/json; charset=utf-8"

// WriteBody answers with an already encoded body. Content-Length is set, so
// net/http neither sniffs nor chunk-frames it whatever its size, and the body
// goes out in one Write.
func WriteBody(w http.ResponseWriter, status int, contentType string, body []byte) {
	h := w.Header()
	if contentType != "" {
		h.Set("Content-Type", contentType)
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// StartDebugServer serves a debug handler (typically Handler or HandlerFor
// wrapped in Middleware) on addr in the background, returning the bound
// address and a graceful-shutdown func. Pass "127.0.0.1:0" for an ephemeral
// port.
func StartDebugServer(addr string, h http.Handler) (string, func(context.Context) error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: debug listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Shutdown, nil
}

// ServeUntilDone is a daemon's serve loop: it runs srv — on ln, or listening
// on srv.Addr when ln is nil — until it fails or ctx ends, then drains it for
// up to five seconds and stops the debug server. It reports false when the
// listener failed, for the daemon to exit 1 on.
func ServeUntilDone(ctx context.Context, logger *slog.Logger, srv *http.Server, ln net.Listener, stopDebug func(context.Context) error) bool {
	errc := make(chan error, 1)
	go func() {
		if ln != nil {
			errc <- srv.Serve(ln)
		} else {
			errc <- srv.ListenAndServe()
		}
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Error("server failed", "err", err)
			return false
		}
	case <-ctx.Done():
		logger.Info("shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			logger.Error("shutdown", "err", err)
		}
		_ = stopDebug(sctx)
	}
	return true
}
