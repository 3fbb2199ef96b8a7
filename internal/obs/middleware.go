package obs

import (
	"cmp"
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Middleware wraps an HTTP handler with the per-request observability every
// daemon surface shares:
//
//   - RED metrics in reg: http_requests_total{service,route,code},
//     http_request_seconds{service,route} and the
//     http_in_flight_requests{service} gauge;
//   - panic recovery: a panicking handler produces a 500 (when nothing was
//     written yet) and an http_panics_total{service} increment instead of a
//     dead connection;
//   - request-ID propagation: an incoming traceparent header is honoured,
//     otherwise a fresh ID is minted; either way the ID is stored in the
//     request context (RequestIDFromContext) and echoed on the response;
//   - a structured slog access-log record per request, carrying the trace ID
//     so one scrape can be followed from client to server logs.
//
// The route label comes from the ServeMux pattern that matched (bounded
// cardinality even for parameterised routes like /crl/{ca}); unmatched
// requests are labelled "unmatched".
//
// The middleware also records one server span per request into the
// process-wide span store (DefaultSpans): an incoming traceparent's span ID
// becomes the server span's parent (stitching the caller's client span to
// this hop), a fresh span ID is minted for the request itself, and when the
// request finishes the store makes the tail-based keep/drop decision for the
// whole locally-buffered trace. Kept requests attach their trace ID as the
// latency histogram's bucket exemplar, so a p99 spike in
// http_request_seconds links directly to a stored trace.
func Middleware(reg *Registry, service string, next http.Handler) http.Handler {
	return MiddlewareSpans(reg, nil, service, next)
}

// MiddlewareSpans is Middleware with an explicit span store; spans == nil
// resolves DefaultSpans per request (tests and fleet simulations pass
// private stores).
func MiddlewareSpans(reg *Registry, spans *SpanStore, service string, next http.Handler) http.Handler {
	reg = cmp.Or(reg, Default())
	inFlight := reg.Gauge("http_in_flight_requests", "service", service)
	panics := reg.Counter("http_panics_total", "service", service)
	var routes sync.Map // ServeMux pattern → *routeHandles
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		parentSpan := ""
		in := r.Header.Get(TraceHeader)
		id, ok := ParseTraceparent(in)
		if ok {
			// The incoming span ID is the caller's client span: it parents
			// this hop's server span, which gets a fresh span ID of its own.
			// ToLower returns the header's own bytes when they are already
			// id.Span()'s lower-case hex.
			parentSpan = strings.ToLower(in[36:52])
			id = id.Child()
		} else {
			id = NewRequestID()
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK, ctx: requestIDContext{r.Context(), id}}
		r = r.WithContext(&sw.ctx)
		tp := id.String()
		trace, spanID := tp[3:35], tp[36:52]
		w.Header().Set(TraceHeader, tp)

		inFlight.Add(1)
		defer func() {
			inFlight.Add(-1)
			spanErr := ""
			if rec := recover(); rec != nil {
				panics.Inc()
				if !sw.wrote {
					http.Error(sw.ResponseWriter, "internal server error", http.StatusInternalServerError)
				}
				sw.status = http.StatusInternalServerError
				spanErr = fmt.Sprintf("panic: %v", rec)
				slog.Error("handler panic", "service", service, "method", r.Method,
					"path", r.URL.Path, "request_id", trace,
					"panic", rec, "stack", string(debug.Stack()))
				// Crash black box: snapshot profiles + the log ring (which now
				// ends with the record above) into the capture directory.
				if c := DefaultCapture(); c != nil {
					c.TriggerAsync("panic-" + service)
				}
			}
			end := time.Now()
			elapsed := end.Sub(start)
			rt := routeFor(&routes, reg, service, r)
			code := min(max(sw.status/100, 0), len(rt.codes)-1)
			requests := rt.codes[code].Load()
			if requests == nil {
				requests = reg.Counter("http_requests_total", "service", service, "route", rt.route,
					"code", statusClass(sw.status))
				rt.codes[code].Store(requests)
			}
			requests.Inc()
			span := rt.span
			if r.Method != rt.method {
				span = r.Method + " " + rt.route
			}

			kept := cmp.Or(spans, DefaultSpans()).RecordRoot(SpanRecord{
				TraceID:  trace,
				SpanID:   spanID,
				ParentID: parentSpan,
				Service:  service,
				Name:     span,
				Kind:     SpanServer,
				Start:    start,
				Duration: elapsed,
				Route:    rt.route,
				Status:   sw.status,
				Err:      spanErr,
			})
			if kept {
				rt.latency.ObserveExemplar(elapsed.Seconds(), trace)
			} else {
				rt.latency.Observe(elapsed.Seconds())
			}
			// Straight to the handler with pc 0, slog's pattern for wrappers:
			// no runtime.Callers walk for a source no handler here prints.
			ctx := context.Background()
			if h := slog.Default().Handler(); h.Enabled(ctx, slog.LevelInfo) {
				a := &accessLog{time: end, service: service, method: r.Method,
					route: rt.route, path: r.URL.Path, remote: r.RemoteAddr, requestID: trace,
					status: sw.status, bytes: sw.bytes,
					durationMS: float64(elapsed.Microseconds()) / 1000}
				if tee, ok := h.(*teeHandler); ok && tee.text != nil {
					tee.logAccess(a)
				} else {
					_ = h.Handle(ctx, a.record()) // as slog.Logger does, a handler's error is dropped
				}
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// routeHandles are one route's per-request instruments, resolved on its
// first request since the registry's last Reset (gen): the span name for the
// method that asked first, the latency histogram, and the request counters
// by status class, each registered on first use. Middleware keys them by
// ServeMux pattern, so the mux's routes bound their number.
type routeHandles struct {
	gen                 uint64
	route, method, span string
	latency             *Histogram
	codes               [7]atomic.Pointer[Counter] // by status/100, "other" at either end
}

// routeFor returns r's route handles from routes, resolving them when the
// route has none for reg's current generation. The generation is read first:
// handles resolved across a Reset are then tagged older than they are and
// resolved again, never kept as current.
func routeFor(routes *sync.Map, reg *Registry, service string, r *http.Request) *routeHandles {
	gen := reg.gen.Load()
	if v, ok := routes.Load(r.Pattern); ok && v.(*routeHandles).gen == gen {
		return v.(*routeHandles)
	}
	route := routeLabel(r)
	rt := &routeHandles{gen: gen, route: route, method: r.Method, span: r.Method + " " + route,
		latency: reg.Histogram("http_request_seconds", nil, "service", service, "route", route)}
	routes.Store(r.Pattern, rt)
	return rt
}

// routeLabel derives the metrics route label for a finished request. The
// inner ServeMux records the matched pattern on the request it was handed, so
// reading it after ServeHTTP sees patterns like "GET /crl/{ca}".
func routeLabel(r *http.Request) string {
	p := r.Pattern
	if p == "" {
		return "unmatched"
	}
	if i := strings.IndexByte(p, ' '); i >= 0 {
		p = p[i+1:]
	}
	if p == "" {
		return "unmatched"
	}
	return p
}

// statusClass buckets a status code as "2xx", "4xx", ... for metric labels.
func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return statusClasses[code/100-1]
}

var statusClasses = [...]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// statusWriter captures the status code and body size written by a handler.
// It also holds the context carrying the request ID: one allocation for both.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
	ctx    requestIDContext
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer when it supports flushing, so
// streaming handlers keep working behind the middleware.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
