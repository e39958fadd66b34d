package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// RouterConfig configures a Router.
type RouterConfig struct {
	// Shards lists the shard base addresses ("host:port" or full
	// "http://host:port" URLs). Required, at least one.
	Shards []string
	// ProbeInterval is the /readyz probing period (0 disables active
	// probing — breakers then only open from request failures and never
	// close).
	ProbeInterval time.Duration
	// MaxBody bounds proxied request bodies (default 8 MiB).
	MaxBody int64
	// Registry receives the mc3_cluster_* metrics (a private registry when
	// nil: /stats reads the per-shard counters back from it).
	Registry *obs.Registry
	// Tracer traces routed requests: a "cluster.route" root span per
	// request with one "cluster.forward" child per shard attempt.
	Tracer *obs.Tracer
}

// The routing policy.
const (
	// maxAttempts bounds the tries per request: one try plus two retries.
	maxAttempts = 3
	// retryBackoff is the wait before the first retry, doubled per retry.
	retryBackoff = 5 * time.Millisecond
	// Each arriving request earns retryEarn retry tokens and each retry
	// spends one; the bucket holds at most retryCap and starts full, as
	// gRPC retry throttling does, so a freshly started router can fail
	// over at once. Sustained retries still stay below a fifth of the
	// traffic, so a burst of shard failures cannot turn into a retry storm
	// against a struggling fleet.
	retryEarn = 0.2
	retryCap  = 50
	// breakerFailures consecutive failures (requests and probes) open a
	// shard's circuit breaker.
	breakerFailures = 3
	// minProbeTimeout floors one probe's timeout, which is otherwise the
	// probe interval.
	minProbeTimeout = 100 * time.Millisecond
)

// shardState is the router's per-shard health and accounting record.
type shardState struct {
	addr     string       // base URL, e.g. "http://127.0.0.1:9101"
	open     atomic.Bool  // circuit breaker: true = not routable
	fails    atomic.Int32 // consecutive failures (requests + probes)
	inflight atomic.Int64

	requests *obs.Counter
	errors   *obs.Counter
	retries  *obs.Counter
	breaker  *obs.Gauge
	lat      *obs.Histogram
}

// Router is the cluster front door: an http.Handler proxying the mc3serve
// API over the shard ring. Stateless /solve requests hash by payload and
// may be retried across replicas; sessions are pinned to the shard that
// created them (the shard index is embedded in the routed session ID), and
// a pinned shard's failure is answered 503 with a reload hint so the client
// re-POSTs its load onto a healthy shard.
type Router struct {
	cfg    RouterConfig
	ring   *Ring
	shards []*shardState
	mux    *http.ServeMux

	tracer   *obs.Tracer
	reloads  *obs.Counter
	solveLat *obs.Histogram // router-observed /solve latency

	budget struct {
		sync.Mutex
		tokens float64
	}

	started  time.Time
	bootID   string
	reqSeq   atomic.Int64
	requests atomic.Int64
	errored  atomic.Int64
	draining atomic.Bool

	probeStop chan struct{}
	probeDone chan struct{}
}

// NewRouter validates cfg and assembles the router. Call Start to begin
// health probing and Close to stop it.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 8 << 20
	}
	addrs := make([]string, len(cfg.Shards))
	for i, a := range cfg.Shards {
		a = strings.TrimSuffix(a, "/")
		if a == "" {
			return nil, fmt.Errorf("cluster: empty shard address")
		}
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		addrs[i] = a
	}
	ring, err := NewRing(addrs)
	if err != nil {
		return nil, err
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	rt := &Router{
		cfg:       cfg,
		ring:      ring,
		tracer:    cfg.Tracer,
		reloads:   reg.Counter("mc3_cluster_reloads_total"),
		solveLat:  reg.Histogram("mc3_cluster_solve_seconds"),
		started:   time.Now(),
		probeStop: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	rt.budget.tokens = retryCap
	rt.bootID = "r" + strconv.FormatInt(rt.started.UnixNano(), 36)
	rt.shards = make([]*shardState, ring.Len())
	for i := 0; i < ring.Len(); i++ {
		addr := ring.Addr(i)
		rt.shards[i] = &shardState{
			addr:     addr,
			requests: reg.Counter(fmt.Sprintf(`mc3_cluster_requests_total{shard=%q}`, addr)),
			errors:   reg.Counter(fmt.Sprintf(`mc3_cluster_errors_total{shard=%q}`, addr)),
			retries:  reg.Counter(fmt.Sprintf(`mc3_cluster_retries_total{shard=%q}`, addr)),
			breaker:  reg.Gauge(fmt.Sprintf(`mc3_cluster_breaker_open{shard=%q}`, addr)),
			lat:      reg.Histogram(fmt.Sprintf(`mc3_cluster_shard_seconds{shard=%q}`, addr)),
		}
	}

	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("POST /solve", rt.handleSolve)
	rt.mux.HandleFunc("POST /load", rt.handleLoad)
	rt.mux.HandleFunc("POST /session/{id}/delta", rt.handleSession)
	rt.mux.HandleFunc("GET /session/{id}/solution", rt.handleSession)
	rt.mux.HandleFunc("DELETE /session/{id}", rt.handleSession)
	rt.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	rt.mux.HandleFunc("GET /readyz", rt.handleReady)
	rt.mux.HandleFunc("GET /stats", rt.handleStats)
	rt.mux.Handle("GET /metrics", reg)
	return rt, nil
}

// Start launches the background /readyz prober (no-op when ProbeInterval
// is 0).
func (rt *Router) Start() {
	if rt.cfg.ProbeInterval <= 0 {
		close(rt.probeDone)
		return
	}
	go rt.probeLoop()
}

// Close stops the prober and waits for it to exit. Safe to call once.
func (rt *Router) Close() {
	close(rt.probeStop)
	<-rt.probeDone
}

// StartDrain flips the router into drain mode: every request is answered
// 503 + Retry-After.
func (rt *Router) StartDrain() { rt.draining.Store(true) }

// Ring exposes the shard ring (for harness and test introspection).
func (rt *Router) Ring() *Ring { return rt.ring }

// probeLoop probes every shard's /readyz on the configured interval,
// closing breakers on success and failing them toward open on failure.
func (rt *Router) probeLoop() {
	defer close(rt.probeDone)
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	rt.probeAll() // immediate first pass: mark dead shards before traffic
	for {
		select {
		case <-rt.probeStop:
			return
		case <-t.C:
			rt.probeAll()
		}
	}
}

// probeAll probes all shards once, concurrently.
func (rt *Router) probeAll() {
	var wg sync.WaitGroup
	for _, sh := range rt.shards {
		wg.Add(1)
		go func(sh *shardState) {
			defer wg.Done()
			rt.probe(sh)
		}(sh)
	}
	wg.Wait()
}

// probe checks one shard's /readyz; a success closes its breaker, a failure
// counts toward opening it.
func (rt *Router) probe(sh *shardState) {
	ctx, cancel := context.WithTimeout(context.Background(), max(rt.cfg.ProbeInterval, minProbeTimeout))
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.addr+"/readyz", nil)
	if err != nil {
		rt.markFailure(sh)
		return
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		rt.markFailure(sh)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		rt.markSuccess(sh)
	} else {
		rt.markFailure(sh)
	}
}

// markFailure records a failed request or probe; breakerFailures
// consecutive failures open the breaker.
func (rt *Router) markFailure(sh *shardState) {
	if sh.fails.Add(1) >= breakerFailures {
		if !sh.open.Swap(true) {
			sh.breaker.Set(1)
		}
	}
}

// markSuccess resets the failure streak and closes the breaker.
func (rt *Router) markSuccess(sh *shardState) {
	sh.fails.Store(0)
	if sh.open.Swap(false) {
		sh.breaker.Set(0)
	}
}

// healthy reports whether shard i is routable (breaker closed).
func (rt *Router) healthy(i int) bool { return !rt.shards[i].open.Load() }

// candidates is a stateless request's attempt order: key's healthy
// replicas in preference order, at most maxAttempts of them. When every
// breaker is open it falls back to the full ring order (the attempts then
// fail fast and report).
func (rt *Router) candidates(key string) []int {
	seq := rt.ring.Sequence(key)
	out := make([]int, 0, len(seq))
	for _, s := range seq {
		if rt.healthy(s) {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		out = seq
	}
	return out[:min(len(out), maxAttempts)]
}

// retryAllowed spends one token from the retry budget.
func (rt *Router) retryAllowed() bool {
	rt.budget.Lock()
	defer rt.budget.Unlock()
	if rt.budget.tokens < 1 {
		return false
	}
	rt.budget.tokens--
	return true
}

// earnRetry credits the budget for one arriving request.
func (rt *Router) earnRetry() {
	rt.budget.Lock()
	rt.budget.tokens = min(rt.budget.tokens+retryEarn, retryCap)
	rt.budget.Unlock()
}

// ServeHTTP answers 503 during drain and dispatches otherwise.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if rt.draining.Load() {
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, routerError{Error: "router is draining"})
		return
	}
	rt.mux.ServeHTTP(w, r)
}

// routerError is the router's JSON error document. Reload, when true, tells
// the client its session's shard is gone and the state must be re-POSTed to
// /load (the router will place it on a healthy shard).
type routerError struct {
	Error  string `json:"error"`
	Reload bool   `json:"reload,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// shardResponse is one buffered shard answer.
type shardResponse struct {
	status int
	header http.Header
	body   []byte
}

// send relays a shard response to the client, preserving Content-Type and
// the request ID.
func (sr *shardResponse) send(w http.ResponseWriter) {
	if ct := sr.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := sr.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(sr.status)
	w.Write(sr.body)
}

// requestID resolves the inbound request ID (generating one when absent)
// and stamps it on the response, so router and shard spans join on it.
func (rt *Router) requestID(w http.ResponseWriter, r *http.Request) string {
	id := r.Header.Get("X-Request-ID")
	if id == "" {
		id = fmt.Sprintf("%s-%06d", rt.bootID, rt.reqSeq.Add(1))
	}
	w.Header().Set("X-Request-ID", id)
	return id
}

// readBody buffers the request body under the configured bound. When the
// body cannot be read it answers the request — 413 when the body exceeds
// MaxBody, 400 otherwise — and reports false.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBody))
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		rt.failRouter(w, code, fmt.Errorf("read request body: %w", err), false)
		return nil, false
	}
	return body, true
}

// forward performs one shard request and buffers the answer. Transport
// failures and 5xx answers count against the shard's breaker; anything the
// shard actually answered (including 4xx) counts as shard success.
func (rt *Router) forward(ctx context.Context, span *obs.Span, shard int, method, path, reqID string, body []byte) (*shardResponse, error) {
	sh := rt.shards[shard]
	sh.requests.Inc()
	sh.inflight.Add(1)
	defer sh.inflight.Add(-1)

	sp, _ := obs.StartSpan(obs.ContextWithSpan(ctx, span), rt.tracer, "cluster.forward",
		obs.Str("shard", sh.addr), obs.Str("path", path))
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, sh.addr+path, rd)
	if err != nil {
		sp.EndErr(err)
		return nil, err
	}
	req.Header.Set("X-Request-ID", reqID)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		sh.errors.Inc()
		rt.markFailure(sh)
		sp.EndErr(err)
		return nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		sh.errors.Inc()
		rt.markFailure(sh)
		sp.EndErr(err)
		return nil, err
	}
	sh.lat.Observe(time.Since(start).Seconds())
	sp.SetAttr(obs.Int("status", resp.StatusCode))
	if resp.StatusCode >= 500 {
		sh.errors.Inc()
		rt.markFailure(sh)
		sp.EndErr(fmt.Errorf("shard %s: HTTP %d", sh.addr, resp.StatusCode))
	} else {
		rt.markSuccess(sh)
		sp.End()
	}
	return &shardResponse{status: resp.StatusCode, header: resp.Header, body: respBody}, nil
}

// retryable reports whether a shard's answer should move the request to
// its next attempt: 502/503/504 mean the shard is down, draining, or out of
// time; 4xx answers are the client's problem and final.
func retryable(status int) bool {
	switch status {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// retry sends a request to plan's shards in order — plan[i] is attempt
// i's shard — and returns the first answer that is not retryable, with the
// shard that gave it. Every retry spends a token from the retry budget and
// first backs off, retryBackoff doubled per retry, on the request context.
// A cancelled context ends the attempts with ctx.Err(); otherwise, when
// every attempt fails or the budget runs dry, retry returns the last
// attempt's failure.
func (rt *Router) retry(ctx context.Context, span *obs.Span, plan []int, method, path, reqID string, body []byte) (*shardResponse, int, error) {
	var lastErr error
	for i, shard := range plan {
		if i > 0 {
			if !rt.retryAllowed() {
				break
			}
			rt.shards[shard].retries.Inc()
			span.SetAttr(obs.Int("retries", i))
			backoff := time.NewTimer(retryBackoff << (i - 1))
			select {
			case <-ctx.Done():
				backoff.Stop()
				return nil, 0, ctx.Err()
			case <-backoff.C:
			}
		}
		sr, err := rt.forward(ctx, span, shard, method, path, reqID, body)
		if err == nil {
			if !retryable(sr.status) {
				return sr, shard, nil
			}
			err = fmt.Errorf("shard answered HTTP %d", sr.status)
		}
		if ctx.Err() != nil {
			return nil, 0, ctx.Err()
		}
		lastErr = err
	}
	return nil, 0, lastErr
}

// handleSolve proxies a stateless solve: consistent-hash by payload (a
// deterministic proxy for the component cache signature — identical loads
// land on the same shard, so its component cache amortizes them), retried
// on the next replicas when a shard fails.
func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	rt.requests.Add(1)
	rt.earnRetry()
	reqID := rt.requestID(w, r)
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	key := "solve:" + strconv.FormatUint(KeyHash(string(body)), 16)
	sp, ctx := obs.StartSpan(r.Context(), rt.tracer, "cluster.route",
		obs.Str("endpoint", "solve"), obs.Str("request_id", reqID), obs.Str("key", key))

	start := time.Now()
	sr, _, err := rt.retry(ctx, sp, rt.candidates(key), http.MethodPost, "/solve", reqID, body)
	if err != nil {
		sp.EndErr(err)
		if ctx.Err() != nil {
			rt.failRouter(w, statusClientClosedRequest, err, false)
			return
		}
		rt.failRouter(w, http.StatusBadGateway, fmt.Errorf("all replicas failed: %w", err), false)
		return
	}
	if sr.status < 400 {
		rt.solveLat.Observe(time.Since(start).Seconds())
	}
	sp.SetAttr(obs.Int("status", sr.status))
	sp.End()
	sr.send(w)
}

// failRouter answers a router-level error (no shard answered).
func (rt *Router) failRouter(w http.ResponseWriter, code int, err error, reload bool) {
	rt.errored.Add(1)
	if reload {
		rt.reloads.Inc()
	}
	writeJSON(w, code, routerError{Error: err.Error(), Reload: reload})
}

// sessionID formats a routed session ID: the shard index is embedded so
// session routing is stateless-recoverable (a router restart can still
// route "c2-s7" to shard 2).
func sessionID(shard int, shardSession string) string {
	return fmt.Sprintf("c%d-%s", shard, shardSession)
}

// parseSessionID inverts sessionID.
func (rt *Router) parseSessionID(id string) (shard int, shardSession string, err error) {
	rest, ok := strings.CutPrefix(id, "c")
	if !ok {
		return 0, "", fmt.Errorf("malformed cluster session id %q", id)
	}
	idx, rest, ok := strings.Cut(rest, "-")
	if !ok {
		return 0, "", fmt.Errorf("malformed cluster session id %q", id)
	}
	n, err := strconv.Atoi(idx)
	if err != nil || n < 0 || n >= len(rt.shards) || rest == "" {
		return 0, "", fmt.Errorf("unknown shard in session id %q", id)
	}
	return n, rest, nil
}

// handleLoad places a new session: the routing key is the client's
// X-Session-Key when given (so a client can pin related sessions
// deterministically) and the payload hash otherwise. Placement is
// health-aware; a load that fails on one shard before any state exists is
// retried on the next replica. The shard's session ID is rewritten to the
// routed form.
func (rt *Router) handleLoad(w http.ResponseWriter, r *http.Request) {
	rt.requests.Add(1)
	rt.earnRetry()
	reqID := rt.requestID(w, r)
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	key := r.Header.Get("X-Session-Key")
	if key == "" {
		key = "load:" + strconv.FormatUint(KeyHash(string(body)), 16)
	}
	sp, ctx := obs.StartSpan(r.Context(), rt.tracer, "cluster.route",
		obs.Str("endpoint", "load"), obs.Str("request_id", reqID), obs.Str("key", key))

	path := "/load"
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	sr, shard, err := rt.retry(ctx, sp, rt.candidates(key), http.MethodPost, path, reqID, body)
	if err != nil {
		sp.EndErr(err)
		if ctx.Err() != nil {
			rt.failRouter(w, statusClientClosedRequest, err, false)
			return
		}
		rt.failRouter(w, http.StatusBadGateway, fmt.Errorf("load placement failed: %w", err), false)
		return
	}
	sp.SetAttr(obs.Int("status", sr.status), obs.Str("shard", rt.shards[shard].addr))
	if sr.status != http.StatusOK {
		sp.End()
		sr.send(w)
		return
	}

	// Rewrite the shard-local session ID into the routed form.
	var doc map[string]any
	if err := json.Unmarshal(sr.body, &doc); err != nil {
		sp.EndErr(err)
		rt.failRouter(w, http.StatusBadGateway, fmt.Errorf("shard load answer not JSON: %w", err), false)
		return
	}
	sid, _ := doc["session"].(string)
	if sid == "" {
		sp.EndErr(fmt.Errorf("no session in shard answer"))
		rt.failRouter(w, http.StatusBadGateway, fmt.Errorf("shard load answer carries no session id"), false)
		return
	}
	routed := sessionID(shard, sid)
	doc["session"] = routed
	doc["shard"] = rt.shards[shard].addr
	sp.End()
	writeJSON(w, http.StatusOK, doc)
}

// statusClientClosedRequest mirrors the shard vocabulary (nginx's 499).
const statusClientClosedRequest = 499

// handleSession proxies the pinned per-session endpoints. Sessions are
// shared-nothing state on one shard: there is no replica to fail over to,
// so when the pinned shard is broken the router answers 503 with a reload
// hint ("reload": true) and the client re-POSTs its load. Only the
// idempotent GET is retried, and only against its own shard.
func (rt *Router) handleSession(w http.ResponseWriter, r *http.Request) {
	rt.requests.Add(1)
	rt.earnRetry()
	reqID := rt.requestID(w, r)
	id := r.PathValue("id")
	shard, shardSession, err := rt.parseSessionID(id)
	if err != nil {
		rt.failRouter(w, http.StatusNotFound, err, false)
		return
	}
	suffix := strings.TrimPrefix(r.URL.Path, "/session/"+id)
	path := "/session/" + shardSession + suffix

	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	if len(body) == 0 {
		body = nil
	}
	sp, ctx := obs.StartSpan(r.Context(), rt.tracer, "cluster.route",
		obs.Str("endpoint", "session"), obs.Str("request_id", reqID),
		obs.Str("session", id), obs.Str("shard", rt.shards[shard].addr))

	if !rt.healthy(shard) {
		sp.EndErr(fmt.Errorf("shard %s breaker open", rt.shards[shard].addr))
		rt.sessionGone(w, id, fmt.Errorf("session %s is pinned to unavailable shard %s", id, rt.shards[shard].addr))
		return
	}

	attempts := 1
	if r.Method == http.MethodGet {
		attempts = maxAttempts
	}
	plan := make([]int, attempts)
	for i := range plan {
		plan[i] = shard
	}
	sr, _, err := rt.retry(ctx, sp, plan, r.Method, path, reqID, body)
	if err != nil {
		sp.EndErr(err)
		if ctx.Err() != nil {
			rt.failRouter(w, statusClientClosedRequest, err, false)
			return
		}
		// The pinned shard did not answer, or is draining or out of time:
		// its session state must be assumed lost. Tell the client to
		// reload.
		rt.sessionGone(w, id, fmt.Errorf("session %s shard failed: %w", id, err))
		return
	}
	sp.SetAttr(obs.Int("status", sr.status))
	sp.End()

	// Success documents echo the shard-local session ID; rewrite it to the
	// routed one so clients only ever see routed IDs.
	if sr.status == http.StatusOK && len(sr.body) > 0 {
		var doc map[string]any
		if err := json.Unmarshal(sr.body, &doc); err == nil {
			if _, ok := doc["session"]; ok {
				doc["session"] = id
				writeJSON(w, http.StatusOK, doc)
				return
			}
		}
	}
	sr.send(w)
}

// sessionGone answers the session-migration-on-failure contract: 503 +
// Retry-After + "reload": true.
func (rt *Router) sessionGone(w http.ResponseWriter, id string, err error) {
	w.Header().Set("Retry-After", "1")
	w.Header().Set("X-MC3-Reload", "1")
	rt.failRouter(w, http.StatusServiceUnavailable,
		fmt.Errorf("%v; re-POST the load to place the session on a healthy shard", err), true)
}

// handleReady answers 200 while at least one shard is routable.
func (rt *Router) handleReady(w http.ResponseWriter, _ *http.Request) {
	for i := range rt.shards {
		if rt.healthy(i) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			io.WriteString(w, "ready\n")
			return
		}
	}
	w.Header().Set("Retry-After", "5")
	writeJSON(w, http.StatusServiceUnavailable, routerError{Error: "no healthy shards"})
}

// RouterStats is the router /stats document.
type RouterStats struct {
	UptimeSeconds float64      `json:"uptime_seconds"`
	Requests      int64        `json:"requests"`
	Errors        int64        `json:"errors"`
	Reloads       int64        `json:"reloads"`
	Shards        []ShardStats `json:"shards"`
}

// ShardStats is one shard's router-side view.
type ShardStats struct {
	Addr        string  `json:"addr"`
	Healthy     bool    `json:"healthy"`
	BreakerOpen bool    `json:"breaker_open"`
	Requests    int64   `json:"requests"`
	Errors      int64   `json:"errors"`
	Retries     int64   `json:"retries"`
	InFlight    int64   `json:"in_flight"`
	P50         float64 `json:"p50_seconds"`
	P95         float64 `json:"p95_seconds"`
	P99         float64 `json:"p99_seconds"`
}

// Stats snapshots the router's counters.
func (rt *Router) Stats() RouterStats {
	st := RouterStats{
		UptimeSeconds: time.Since(rt.started).Seconds(),
		Requests:      rt.requests.Load(),
		Errors:        rt.errored.Load(),
		Reloads:       rt.reloads.Value(),
	}
	for i, sh := range rt.shards {
		st.Shards = append(st.Shards, ShardStats{
			Addr:        sh.addr,
			Healthy:     rt.healthy(i),
			BreakerOpen: sh.open.Load(),
			Requests:    sh.requests.Value(),
			Errors:      sh.errors.Value(),
			Retries:     sh.retries.Value(),
			InFlight:    sh.inflight.Load(),
			P50:         sh.lat.Quantile(0.50),
			P95:         sh.lat.Quantile(0.95),
			P99:         sh.lat.Quantile(0.99),
		})
	}
	return st
}

func (rt *Router) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, rt.Stats())
}
