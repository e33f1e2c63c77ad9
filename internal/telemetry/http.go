package telemetry

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"
)

// HTTPMetrics instruments a mux's handlers with per-route/status
// request counts, per-route latency histograms, trace-id propagation,
// and Debug-level span logs. Routes are labeled by the explicit
// pattern string passed to Wrap — not derived from the request — so
// cardinality is bounded by the route table, and the label is stable
// regardless of Go version (http.Request.Pattern needs go1.23; this
// repo pins go1.22).
type HTTPMetrics struct {
	requests *CounterVec
	seconds  *HistogramVec
	log      *slog.Logger
}

// NewHTTPMetrics registers vexus_<ns>_requests_total{route,status} and
// vexus_<ns>_request_seconds{route} on reg (serve and cluster always
// pass a live one).
func NewHTTPMetrics(reg *Registry, ns string, logger *slog.Logger) *HTTPMetrics {
	return &HTTPMetrics{
		requests: reg.CounterVec("vexus_"+ns+"_requests_total", "HTTP requests by route and status.", "route", "status"),
		seconds:  reg.HistogramVec("vexus_"+ns+"_request_seconds", "HTTP request latency in seconds by route.", DefBuckets, "route"),
		log:      logger,
	}
}

// Wrap instruments h under the given route label. The returned handler
// adopts the caller's X-Vexus-Trace id or mints one, reflects it on
// the response, re-sets it on the request header (so a proxying
// handler forwards it for free) and in the context (so in-process
// spans can key on it), then records count + latency and a span log.
func (m *HTTPMetrics) Wrap(route string, h http.Handler) http.Handler {
	requests, seconds := m.requests, m.seconds
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace := r.Header.Get(TraceHeader)
		if trace == "" {
			trace = NewTraceID()
			r.Header.Set(TraceHeader, trace)
		}
		w.Header().Set(TraceHeader, trace)
		r = r.WithContext(WithTrace(r.Context(), trace))

		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(sw, r)
		elapsed := time.Since(start)

		requests.With(route, strconv.Itoa(sw.status)).Inc()
		seconds.With(route).Observe(elapsed.Seconds())
		if m.log != nil && m.log.Enabled(r.Context(), slog.LevelDebug) {
			m.log.Debug("request",
				"span", "route",
				"trace", trace,
				"route", route,
				"status", sw.status,
				"ms", float64(elapsed.Microseconds())/1000,
			)
		}
	})
}

// statusWriter records the status code while passing Flush through —
// the SSE endpoints stream through this wrapper, and losing
// http.Flusher would silently buffer every event.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
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
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
