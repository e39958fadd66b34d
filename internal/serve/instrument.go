package serve

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
)

// Request-scoped observability: every solving endpoint runs under
// instrument(), which
//
//   - assigns the request an ID (the client's X-Request-ID when given, a
//     generated one otherwise) and echoes it on the response;
//   - opens an "http.request" root span carrying endpoint, method, and
//     request ID, and threads it through the request context so the solver
//     and incremental-engine spans nest under it — the flight recorder
//     retains the whole tree, /debug/trace/{id} serves it back;
//   - counts the request in the server-wide totals (/stats "requests",
//     mc3serve_requests_total) — the one place requests are counted, so
//     every error fail() counts belongs to a counted request;
//   - records RED metrics per endpoint × status class
//     (mc3serve_http_requests_total, mc3serve_http_errors_total,
//     mc3serve_http_request_seconds).
//
// /healthz, /stats, /metrics, and the /debug endpoints stay uninstrumented:
// they solve nothing, and probes/scrapes would drown the request ring.

// instrument wraps a handler with request-ID propagation, the root span, and
// the endpoint's RED metrics (pre-registered here, once, so the per-request
// path does no registry lookups).
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	em := s.newEndpointMetrics(endpoint)
	total := s.registry.Counter("mc3serve_requests_total")
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		total.Inc()
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = s.newRequestID()
		}
		w.Header().Set("X-Request-ID", reqID)
		sp := s.tracer.StartSpan("http.request",
			obs.Str("endpoint", endpoint), obs.Str("method", r.Method), obs.Str("request_id", reqID))
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r.WithContext(obs.ContextWithSpan(r.Context(), sp)))
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		em.observe(status, time.Since(start).Seconds())
		sp.SetAttr(obs.Int("status", status))
		if status >= 400 {
			// An error root makes the flight recorder's tail capture fire
			// regardless of latency.
			sp.EndErr(fmt.Errorf("HTTP %d", status))
		} else {
			sp.End()
		}
	}
}

// newRequestID issues a process-unique request ID: a per-boot prefix plus a
// sequence number.
func (s *Server) newRequestID() string {
	return fmt.Sprintf("%s-%06d", s.bootID, s.reqSeq.Add(1))
}

// statusWriter captures the response status for metrics and the root span.
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

// endpointMetrics holds one endpoint's pre-registered RED series.
type endpointMetrics struct {
	classes [5]*obs.Counter // status classes 1xx … 5xx
	errors  *obs.Counter
	seconds *obs.Histogram
}

func (s *Server) newEndpointMetrics(endpoint string) *endpointMetrics {
	em := &endpointMetrics{
		errors:  s.registry.Counter(fmt.Sprintf(`mc3serve_http_errors_total{endpoint=%q}`, endpoint)),
		seconds: s.registry.Histogram(fmt.Sprintf(`mc3serve_http_request_seconds{endpoint=%q}`, endpoint)),
	}
	for i := range em.classes {
		em.classes[i] = s.registry.Counter(
			fmt.Sprintf(`mc3serve_http_requests_total{endpoint=%q,status="%dxx"}`, endpoint, i+1))
	}
	return em
}

// observe records one finished request.
func (em *endpointMetrics) observe(status int, secs float64) {
	class := status/100 - 1
	if class < 0 {
		class = 0
	} else if class > 4 {
		class = 4
	}
	em.classes[class].Inc()
	em.seconds.Observe(secs)
	if status >= 400 {
		em.errors.Inc()
	}
}

// observeSolve records one solve/apply duration into the aggregate
// mc3serve_solve_seconds family and its per-endpoint split series.
func (s *Server) observeSolve(endpoint string, secs float64) {
	s.solveSecsAll.Observe(secs)
	s.solveSecs[endpoint].Observe(secs)
}

// handleDebugRequests answers GET /debug/requests: the flight recorder's
// counters plus a newest-first summary of the retained request traces. These
// answer directly (not via s.fail) so inspecting the server never inflates
// its error metrics.
func (s *Server) handleDebugRequests(w http.ResponseWriter, _ *http.Request) {
	if s.flight == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "flight recorder disabled (-flight 0)"})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Stats    obs.FlightStats    `json:"stats"`
		Requests []obs.TraceSummary `json:"requests"`
	}{s.flight.Stats(), s.flight.Snapshot()})
}

// handleDebugTrace answers GET /debug/trace/{id}: the full span tree of one
// retained request, looked up by request ID or root span ID.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "flight recorder disabled (-flight 0)"})
		return
	}
	id := r.PathValue("id")
	t, ok := s.flight.Trace(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("no retained trace %q (evicted or never recorded)", id)})
		return
	}
	writeJSON(w, http.StatusOK, t.JSON())
}
