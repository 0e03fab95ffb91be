// Request instrumentation: the metrics middleware every route is
// wrapped in, request-ID propagation, and the observability endpoints
// (GET /metrics, optional /debug/pprof).

package httpapi

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"graphitti/internal/obs"
	"graphitti/internal/trace"
)

// Process-wide HTTP metrics (see internal/obs for the scope model). All
// are documented in docs/METRICS.md, which a test keeps in sync.
var (
	mHTTPRequests = obs.NewCounterVec("graphitti_http_requests_total",
		"HTTP requests served, by route pattern, method and status code.",
		"route", "method", "status")
	mHTTPDuration = obs.NewHistogramVec("graphitti_http_request_duration_seconds",
		"HTTP request latency, handler entry to response completion, by route pattern.",
		nil, "route")
	mHTTPInFlight = obs.NewGauge("graphitti_http_in_flight_requests",
		"HTTP requests being served and not yet counted in graphitti_http_requests_total.")
)

// requestIDHeader is honored on ingress (so upstream proxies correlate)
// and always set on the response.
const requestIDHeader = "X-Request-Id"

type ctxKey int

const requestIDKey ctxKey = 0

// RequestID returns the request's correlation ID, or "" outside an
// instrumented request. Every JSON error envelope and 5xx log line
// carries the same value, so client reports match server logs.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// newRequestID returns a fresh 16-hex-char correlation ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "rand-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// acceptRequestID reports whether a client-supplied ID is safe to echo:
// short and printable ASCII (it lands in headers, JSON and logs).
func acceptRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return false
		}
	}
	return true
}

// statusWriter captures the response status for the request counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// traceParentHeader is the W3C trace-context header: honored on ingress
// (the root span joins the caller's trace) and always set on the
// response so clients learn the trace ID their request got.
const traceParentHeader = "traceparent"

// instrument wraps the whole mux: it assigns (or honors) the request ID,
// opens the request's root span (honoring an incoming W3C traceparent),
// tracks the in-flight gauge, and — after dispatch, when ServeMux has
// populated r.Pattern — records the route-labelled counter and latency
// sample, and only then leaves the gauge. 5xx responses are logged with
// the request ID; requests at or above Options.SlowRequest are logged
// with the span breakdown.
//
// The request ID and traceparent are written to the response header
// BEFORE dispatch, so every route — including /metrics and /debug/pprof,
// which write their bodies directly — echoes them.
func (s *server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get(requestIDHeader)
		if !acceptRequestID(id) {
			id = newRequestID()
		}
		sp := trace.NewRoot("http", r.Header.Get(traceParentHeader))
		sp.SetAttr("method", r.Method)
		w.Header().Set(requestIDHeader, id)
		w.Header().Set(traceParentHeader, sp.TraceParent())
		ctx := context.WithValue(r.Context(), requestIDKey, id)
		r = r.WithContext(trace.NewContext(ctx, sp))

		sw := &statusWriter{ResponseWriter: w}
		var out http.ResponseWriter = sw
		var tb *traceBuffer
		if traceRequested(r) {
			// Buffer the body so the finished span tree can be folded
			// into the response envelope after the handler returns.
			tb = &traceBuffer{dst: sw}
			out = tb
		}
		// A handler that streams its body can have all of it at the client
		// before it returns here. The gauge therefore drops only after the
		// counter and the histogram have the request: at every instant a
		// request that reached a handler is in one or the other, so a
		// scrape that shows nothing else in flight has counted everything
		// answered before it. A handler that aborts its response
		// (panic(http.ErrAbortHandler), once its body has begun) is counted
		// too, with the status it sent, on the way out.
		mHTTPInFlight.Add(1)
		defer mHTTPInFlight.Add(-1)
		aborted := true
		defer func() {
			// ServeMux fills r.Pattern on the request it dispatched; an empty
			// pattern is a 404/405 that matched no route.
			route := r.Pattern
			if route == "" {
				route = "unmatched"
			}
			status := sw.status
			if tb != nil && tb.status != 0 {
				status = tb.status
			}
			if status == 0 {
				status = http.StatusOK
			}
			sp.SetAttr("route", route)
			sp.SetAttrInt("status", int64(status))
			sp.Finish()
			s.tracer.Record(sp, tb != nil)
			if tb != nil {
				tb.flush(sp)
			}

			elapsed := time.Since(start)
			mHTTPRequests.With(route, r.Method, strconv.Itoa(status)).Inc()
			mHTTPDuration.With(route).Observe(elapsed.Seconds())
			if (aborted || status >= 500) && s.opts.Logger != nil {
				msg := "request failed"
				if aborted {
					msg = "request aborted"
				}
				s.opts.Logger.Error(msg,
					"requestId", id, "route", route, "method", r.Method,
					"status", status, "duration", elapsed)
			}
			if s.opts.SlowRequest > 0 && elapsed >= s.opts.SlowRequest && s.opts.Logger != nil {
				s.opts.Logger.Warn("slow request",
					"requestId", id, "traceId", sp.TraceID(), "route", route,
					"method", r.Method, "status", status, "duration", elapsed,
					"spans", sp.Breakdown())
			}
		}()
		next.ServeHTTP(out, r)
		aborted = false
	})
}

// metrics serves the registry in Prometheus text exposition format.
func (s *server) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.Default.WritePrometheus(w)
}

// mountPprof registers the net/http/pprof handlers; gated behind
// Options.EnablePprof (the -pprof server flag) because profiles expose
// internals and cost CPU.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}
