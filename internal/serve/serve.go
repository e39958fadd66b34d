// Package serve implements the mc3serve HTTP daemon as a reusable library:
// a Server answers stateless /solve requests and stateful incremental
// sessions over one process-wide component-solution cache, with
// request-scoped observability (X-Request-ID propagation, flight-recorder
// tracing, RED metrics). cmd/mc3serve wraps it in flag parsing and signal
// handling; internal/cluster spawns fleets of them as shard processes behind
// a consistent-hash router.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/textio"
)

// Config is the daemon configuration. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	Algo       string // algorithm: auto|ktwo|general|short-first|portfolio
	WSC        string // Algorithm 3 set-cover engine
	Prep       string // preprocessing level: full|minimal
	Engine     string // Algorithm 2 max-flow engine
	Parallel   int    // components solved concurrently per request
	CacheSize  int    // component-solution cache bound in 4 KiB slots (0 disables)
	ReqTimeout time.Duration
	MaxBody    int64
	// MaxLoadQueries rejects /load bodies above this many queries with a
	// 413 pointing at the streamed CLI path (mc3solve -stream): a session
	// holds the materialized instance for its whole lifetime, so loads past
	// this size belong in the streaming solver, not a serving daemon.
	// 0 disables the check.
	MaxLoadQueries int
	Validate       bool
	MaxSessions    int
	Flight         int // span trees retained by the flight recorder (0 disables)

	// SlowW, when non-nil, receives the slow/failed-request JSONL stream
	// (requires Flight > 0); SlowThreshold is the capture latency bound.
	SlowW         io.Writer
	SlowThreshold time.Duration
}

// DefaultConfig returns the configuration matching mc3serve's flag defaults.
func DefaultConfig() Config {
	return Config{
		Algo:           "auto",
		WSC:            "auto",
		Prep:           "full",
		Engine:         "dinic",
		Parallel:       -1,
		CacheSize:      cache.DefaultMaxEntries,
		ReqTimeout:     30 * time.Second,
		MaxBody:        8 << 20,
		MaxLoadQueries: 100_000,
		Validate:       true,
		MaxSessions:    64,
		Flight:         256,
		SlowThreshold:  time.Second,
	}
}

// Server is the HTTP handler: immutable solver configuration plus the shared
// mutable state (cache, metrics, counters). Safe for concurrent requests.
type Server struct {
	cfg      Config
	opts     solver.Options // template; Context is set per request
	cache    *cache.Cache   // nil when CacheSize == 0
	registry *obs.Registry
	tracer   *obs.Tracer         // the request tracer (== opts.Tracer)
	flight   *obs.FlightRecorder // nil when Flight == 0
	mux      *http.ServeMux
	started  time.Time
	bootID   string // request-ID prefix, unique per process
	sessions sessions

	// flightBytes is mc3_flight_retained_bytes, refreshed from the
	// recorder's stats at each /metrics scrape (nil when Flight == 0).
	flightBytes *obs.Gauge

	// solveSecsAll aggregates solve latency across endpoints (the
	// pre-existing mc3serve_solve_seconds family); solveSecs holds the
	// per-endpoint split series.
	solveSecsAll *obs.Histogram
	solveSecs    map[string]*obs.Histogram

	requests atomic.Int64
	errored  atomic.Int64
	reqSeq   atomic.Int64
	draining atomic.Bool
}

// New validates cfg and assembles the handler. The tracer (nil for none)
// receives every request's span tree in addition to the server's own sinks.
func New(cfg Config, tracer *obs.Tracer) (*Server, error) {
	opts, err := solver.ParseOptions(cfg.WSC, cfg.Prep, cfg.Engine)
	if err != nil {
		return nil, err
	}
	opts.Parallelism = cfg.Parallel
	if err := checkAlgo(cfg.Algo); err != nil {
		return nil, err
	}
	if cfg.SlowW != nil && cfg.Flight <= 0 {
		return nil, fmt.Errorf("slow-query capture requires the flight recorder (Flight > 0)")
	}
	reg := obs.NewRegistry()
	reg.Publish("mc3serve")
	s := &Server{
		cfg:      cfg,
		opts:     opts,
		registry: reg,
		started:  time.Now(),
		sessions: sessions{m: make(map[string]*session), max: cfg.MaxSessions},
	}
	s.bootID = strconv.FormatInt(s.started.UnixNano(), 36)
	if cfg.CacheSize > 0 {
		s.cache = cache.New(cache.Config{MaxEntries: cfg.CacheSize, Metrics: reg})
	}
	s.opts.Cache = s.cache

	// The request tracer: caller sinks (-spans etc.), then the flight
	// recorder, then the metrics registry. One tracer serves every request;
	// the per-request root span opened by instrument() fans out to all of
	// them.
	if cfg.Flight > 0 {
		s.flight = obs.NewFlightRecorder(cfg.Flight)
		if cfg.SlowW != nil {
			s.flight.SetSlowLog(cfg.SlowW, cfg.SlowThreshold)
		}
		tracer = tracer.WithSink(s.flight)
		s.flightBytes = reg.Gauge("mc3_flight_retained_bytes")
	}
	s.opts.Tracer = tracer.WithMetrics(reg)
	s.tracer = s.opts.Tracer

	s.solveSecsAll = reg.Histogram("mc3serve_solve_seconds")
	s.solveSecs = map[string]*obs.Histogram{
		"solve": reg.Histogram(`mc3serve_solve_seconds{endpoint="solve"}`),
		"load":  reg.Histogram(`mc3serve_solve_seconds{endpoint="load"}`),
		"delta": reg.Histogram(`mc3serve_solve_seconds{endpoint="delta"}`),
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /solve", s.instrument("solve", s.handleSolve))
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /load", s.instrument("load", s.handleLoad))
	s.mux.HandleFunc("POST /session/{id}/delta", s.instrument("delta", s.handleDelta))
	s.mux.HandleFunc("GET /session/{id}/solution", s.instrument("solution", s.handleSolution))
	s.mux.HandleFunc("DELETE /session/{id}", s.instrument("session_delete", s.handleSessionDelete))
	s.mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	s.mux.HandleFunc("GET /debug/trace/{id}", s.handleDebugTrace)
	return s, nil
}

// StartDrain flips the server into drain mode: /readyz (and every other
// endpoint) answers 503 + Retry-After so routers and load balancers stop
// sending new work while in-flight requests complete. Irreversible.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Counts returns the lifetime request and error totals.
func (s *Server) Counts() (requests, errors int64) {
	return s.requests.Load(), s.errored.Load()
}

// CacheStats snapshots the process-wide component-solution cache counters.
func (s *Server) CacheStats() cache.Stats { return s.cache.Stats() }

// ServeHTTP dispatches requests; once the server is draining for shutdown
// every request is answered 503 + Retry-After immediately instead of
// racing the listener teardown.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server is draining"})
		return
	}
	s.mux.ServeHTTP(w, r)
}

// handleReady answers GET /readyz: readiness, as distinct from /healthz
// liveness. It flips to 503 the moment a drain starts (the global drain
// check above answers first), so a router's health prober marks the shard
// unready before the listener closes.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server is draining"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ready\n")
}

// solveResponse is the /solve success document.
type solveResponse struct {
	Cost         float64    `json:"cost"`
	Classifiers  [][]string `json:"classifiers"`
	Queries      int        `json:"queries"`
	Seconds      float64    `json:"seconds"`
	Algorithm    string     `json:"algorithm"`
	CacheHitRate float64    `json:"cache_hit_rate"`
}

// errorResponse is the JSON error document for non-2xx answers.
type errorResponse struct {
	Error string `json:"error"`
}

// statusClientClosedRequest is nginx's conventional code for a request whose
// client went away before the answer was ready.
const statusClientClosedRequest = 499

// readInstance parses a request body holding an instance file, under a
// textio.decode span.
func (s *Server) readInstance(w http.ResponseWriter, r *http.Request) (*textio.File, error) {
	sp, _ := obs.StartChild(r.Context(), "textio.decode")
	file, err := textio.Read(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	sp.EndErr(err)
	return file, err
}

// failParse maps a request-body parse error to its HTTP status and answers
// it: 413 for a body over MaxBody, 400 otherwise. what names the body.
func (s *Server) failParse(w http.ResponseWriter, what string, err error) {
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	s.fail(w, code, fmt.Errorf("parse %s: %w", what, err))
}

// handleSolve answers POST /solve: parse the instance, solve it under the
// request's deadline with the shared cache, answer JSON.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	// The body is decoded straight into the universe, queries and price
	// table that core.NewInstance takes, so no File is built.
	sp, _ := obs.StartChild(r.Context(), "textio.decode")
	u, queries, costs, err := textio.ReadLoad(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	sp.EndErr(err)
	if err != nil {
		s.failParse(w, "instance", err)
		return
	}
	sp, _ = obs.StartChild(r.Context(), "core.build")
	inst, err := core.NewInstance(u, queries, costs, core.Options{})
	sp.EndErr(err)
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, fmt.Errorf("build instance: %w", err))
		return
	}
	fn, algoName := pickAlgorithm(s.cfg.Algo, inst)

	// The solve runs under the request context — a dropped connection
	// cancels it — additionally bounded by the configured timeout. The
	// cancellation checkpoints throughout the solver stack make both
	// effective mid-solve.
	opts := s.opts
	opts.Context = r.Context()
	opts.Timeout = s.cfg.ReqTimeout
	opts.Validate = s.cfg.Validate

	start := time.Now()
	sol, err := fn(inst, opts)
	elapsed := time.Since(start)
	s.observeSolve("solve", elapsed.Seconds())
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.fail(w, http.StatusGatewayTimeout, fmt.Errorf("solve exceeded %v", s.cfg.ReqTimeout))
		case errors.Is(err, context.Canceled):
			s.fail(w, statusClientClosedRequest, errors.New("client closed request"))
		default:
			s.fail(w, http.StatusUnprocessableEntity, err)
		}
		return
	}

	writeJSON(w, http.StatusOK, solveResponse{
		Cost:         sol.Cost,
		Classifiers:  textio.SolutionNames(inst, sol),
		Queries:      inst.NumQueries(),
		Seconds:      elapsed.Seconds(),
		Algorithm:    algoName,
		CacheHitRate: s.cache.Stats().HitRate(),
	})
}

// statsResponse is the /stats document.
type statsResponse struct {
	UptimeSeconds float64         `json:"uptime_seconds"`
	Requests      int64           `json:"requests"`
	Errors        int64           `json:"errors"`
	Cache         cache.Stats     `json:"cache"`
	CacheHitRate  float64         `json:"cache_hit_rate"`
	Sessions      sessionsStats   `json:"sessions"`
	SolveLatency  latencyStats    `json:"solve_latency"`
	Sched         schedStats      `json:"sched"`
	Flight        obs.FlightStats `json:"flight"`
}

// latencyStats summarizes a latency histogram: estimated quantiles from the
// registry's fixed log-scale buckets.
type latencyStats struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P95   float64 `json:"p95_seconds"`
	P99   float64 `json:"p99_seconds"`
}

// schedStats surfaces the component dispatcher's mc3_sched_* counters.
type schedStats struct {
	Runs       int64 `json:"runs"`
	Components int64 `json:"components"`
	Tasks      int64 `json:"tasks"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.cache.Stats()
	writeJSON(w, http.StatusOK, statsResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Requests:      s.requests.Load(),
		Errors:        s.errored.Load(),
		Cache:         st,
		CacheHitRate:  st.HitRate(),
		Sessions:      s.sessions.snapshot(),
		SolveLatency: latencyStats{
			Count: s.solveSecsAll.Count(),
			P50:   s.solveSecsAll.Quantile(0.50),
			P95:   s.solveSecsAll.Quantile(0.95),
			P99:   s.solveSecsAll.Quantile(0.99),
		},
		Sched: schedStats{
			Runs:       s.registry.Counter("mc3_sched_runs_total").Value(),
			Components: s.registry.Counter("mc3_sched_components_total").Value(),
			Tasks:      s.registry.Counter("mc3_sched_tasks_total").Value(),
		},
		Flight: s.flight.Stats(),
	})
}

// handleMetrics serves the Prometheus exposition, refreshing the flight
// recorder's footprint gauge first.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.flight != nil {
		s.flightBytes.Set(float64(s.flight.Stats().RetainedBytes))
	}
	s.registry.ServeHTTP(w, r)
}

// fail answers an error as JSON and counts it.
func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	s.errored.Add(1)
	s.registry.Counter("mc3serve_errors_total").Inc()
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// failRetry answers like fail but with a Retry-After hint: the condition is
// transient (backpressure, not a broken request), so well-behaved clients
// and load balancers should try again shortly.
func (s *Server) failRetry(w http.ResponseWriter, code int, retryAfterSecs int, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs))
	s.fail(w, code, err)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// checkAlgo validates the algorithm name once at startup (resolution still
// happens per request, since "auto" depends on the instance).
func checkAlgo(name string) error {
	switch name {
	case "auto", "ktwo", "general", "short-first", "portfolio":
		return nil
	}
	return fmt.Errorf("unknown -algo %q", name)
}

// pickAlgorithm resolves the configured algorithm against an instance. The
// "auto" gate mirrors solver.Auto — static k ≤ 2 dispatch — but is unrolled
// here so the chosen label reaches the response.
func pickAlgorithm(name string, inst *core.Instance) (solver.Func, string) {
	switch name {
	case "ktwo":
		return solver.KTwo, "ktwo"
	case "general":
		return solver.General, "general"
	case "short-first":
		return solver.ShortFirst, "short-first"
	case "portfolio":
		return solver.Portfolio, "portfolio"
	default: // "auto", validated at startup
		if inst.MaxQueryLen() > 2 {
			return solver.General, "general"
		}
		return solver.KTwo, "ktwo"
	}
}
