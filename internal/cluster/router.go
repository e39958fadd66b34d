package cluster

import (
	"bytes"
	"context"
	"encoding/json"
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
	// VNodes is the virtual nodes per shard on the ring (DefaultVNodes when
	// <= 0).
	VNodes int
	// Client performs shard requests. Nil uses a default client with no
	// global timeout (per-request contexts bound each call).
	Client *http.Client

	// HedgeQuantile, in (0, 1), enables hedging of stateless /solve
	// requests: when the primary has not answered within the observed
	// latency quantile (but at least HedgeMinDelay), the router issues the
	// same request to the next healthy replica and answers with whichever
	// finishes first. 0 disables hedging.
	HedgeQuantile float64
	// HedgeMinDelay floors the hedge delay (default 2ms), so a cold
	// latency histogram cannot cause a hedge storm.
	HedgeMinDelay time.Duration
	// HedgeMinSamples is the number of observed solves required before
	// hedging engages (default 16).
	HedgeMinSamples int64

	// MaxAttempts bounds the total tries per idempotent request across
	// replicas (default 3: one primary try plus two retries).
	MaxAttempts int
	// RetryBackoff is the initial exponential backoff between retries
	// (default 5ms; doubled per retry).
	RetryBackoff time.Duration
	// RetryBudget is the sustained retries-per-request ratio allowed
	// (default 0.2). Each arriving request earns this many retry tokens;
	// each retry spends one. The bucket caps at 50 tokens, so a burst of
	// failures cannot turn into a retry storm against a struggling fleet.
	RetryBudget float64

	// ProbeInterval is the /readyz probing period (default 500ms; 0
	// disables active probing — breakers then only open from request
	// failures and never close).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (default ProbeInterval, min 100ms).
	ProbeTimeout time.Duration
	// BreakerFailures is the consecutive-failure count that opens a
	// shard's circuit breaker (default 3).
	BreakerFailures int

	// BoundedLoad is the load-balancing factor c of bounded-load
	// consistent hashing: a shard is skipped while its in-flight count
	// exceeds c · (total in-flight / healthy shards) + 1. 0 disables
	// (strict hashing). Typical: 1.25.
	BoundedLoad float64

	// MaxBody bounds proxied request bodies (default 8 MiB).
	MaxBody int64

	// Registry receives the mc3_cluster_* metrics (nil-safe).
	Registry *obs.Registry
	// Tracer traces routed requests: a "cluster.route" root span per
	// request with one "cluster.forward" child per shard attempt.
	Tracer *obs.Tracer
}

// withDefaults fills the zero values.
func (c RouterConfig) withDefaults() RouterConfig {
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.HedgeMinDelay <= 0 {
		c.HedgeMinDelay = 2 * time.Millisecond
	}
	if c.HedgeMinSamples <= 0 {
		c.HedgeMinSamples = 16
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 5 * time.Millisecond
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 0.2
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.ProbeInterval
		if c.ProbeTimeout < 100*time.Millisecond {
			c.ProbeTimeout = 100 * time.Millisecond
		}
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 3
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 8 << 20
	}
	return c
}

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
// may be retried and hedged across replicas; sessions are pinned to the
// shard that created them (the shard index is embedded in the routed
// session ID), and a pinned shard's failure is answered 503 with a reload
// hint so the client re-POSTs its load onto a healthy shard.
type Router struct {
	cfg    RouterConfig
	ring   *Ring
	shards []*shardState
	mux    *http.ServeMux

	tracer   *obs.Tracer
	registry *obs.Registry

	hedges    *obs.Counter
	hedgeWins *obs.Counter
	reloads   *obs.Counter
	solveLat  *obs.Histogram // router-observed /solve latency: hedge-delay source

	budget struct {
		sync.Mutex
		tokens float64
	}

	sessions struct {
		sync.Mutex
		m map[string]int // routed session ID → shard index
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
	cfg = cfg.withDefaults()
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
	ring, err := NewRing(addrs, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	reg := cfg.Registry
	if reg == nil {
		// The router's own accounting must work without a caller-provided
		// registry: hedging reads its delay quantile from the mc3_cluster
		// solve-latency histogram, which a nil registry would leave
		// permanently cold (Count() == 0 never reaches HedgeMinSamples).
		reg = obs.NewRegistry()
	}
	rt := &Router{
		cfg:       cfg,
		ring:      ring,
		tracer:    cfg.Tracer,
		registry:  reg,
		hedges:    reg.Counter("mc3_cluster_hedges_total"),
		hedgeWins: reg.Counter("mc3_cluster_hedge_wins_total"),
		reloads:   reg.Counter("mc3_cluster_reloads_total"),
		solveLat:  reg.Histogram("mc3_cluster_solve_seconds"),
		started:   time.Now(),
		probeStop: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	rt.bootID = "r" + strconv.FormatInt(rt.started.UnixNano(), 36)
	rt.sessions.m = make(map[string]int)
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
	if reg != nil {
		rt.mux.Handle("GET /metrics", reg)
	}
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
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.addr+"/readyz", nil)
	if err != nil {
		rt.markFailure(sh)
		return
	}
	resp, err := rt.cfg.Client.Do(req)
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

// markFailure records a failed request or probe; BreakerFailures
// consecutive failures open the breaker.
func (rt *Router) markFailure(sh *shardState) {
	if int(sh.fails.Add(1)) >= rt.cfg.BreakerFailures {
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

// routable implements the ring's bounded-load predicate: breaker closed
// and, when BoundedLoad is set, in-flight below c·mean + 1.
func (rt *Router) routable(i int) bool {
	if !rt.healthy(i) {
		return false
	}
	if rt.cfg.BoundedLoad <= 0 {
		return true
	}
	var total, healthy int64
	for j, sh := range rt.shards {
		if rt.healthy(j) {
			total += sh.inflight.Load()
			healthy++
		}
	}
	if healthy == 0 {
		return true
	}
	bound := rt.cfg.BoundedLoad*float64(total)/float64(healthy) + 1
	return float64(rt.shards[i].inflight.Load()) < bound
}

// candidates returns key's replica preference order restricted to healthy
// shards, with the bounded-load pick first; when every breaker is open it
// returns the full ring order (the attempt then fails fast and reports).
func (rt *Router) candidates(key string) []int {
	seq := rt.ring.Sequence(key)
	out := make([]int, 0, len(seq))
	first := rt.ring.Pick(key, rt.routable)
	if rt.healthy(first) {
		out = append(out, first)
	}
	for _, s := range seq {
		if s != first && rt.healthy(s) {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return seq
	}
	return out
}

// retryAllowed spends one token from the retry budget, earning
// RetryBudget per arriving request (bucket capped at 50).
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
	rt.budget.tokens += rt.cfg.RetryBudget
	if rt.budget.tokens > 50 {
		rt.budget.tokens = 50
	}
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
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
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

// readBody buffers the request body under the configured bound.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBody))
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
	resp, err := rt.cfg.Client.Do(req)
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

// retryable reports whether an attempt outcome should move to the next
// replica: transport errors and 502/503/504 (the shard is down, draining,
// or out of time); 4xx answers are the client's problem and final.
func retryable(sr *shardResponse, err error) bool {
	if err != nil {
		return true
	}
	switch sr.status {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// hedgeDelay returns the delay after which a stateless request is hedged,
// or 0 when hedging is disabled or the latency histogram is still cold.
func (rt *Router) hedgeDelay() time.Duration {
	q := rt.cfg.HedgeQuantile
	if q <= 0 || q >= 1 {
		return 0
	}
	if rt.solveLat.Count() < rt.cfg.HedgeMinSamples {
		return 0
	}
	d := time.Duration(rt.solveLat.Quantile(q) * float64(time.Second))
	if d < rt.cfg.HedgeMinDelay {
		d = rt.cfg.HedgeMinDelay
	}
	return d
}

// handleSolve proxies a stateless solve: consistent-hash by payload (a
// deterministic proxy for the component cache signature — identical loads
// land on the same shard, so its component cache amortizes them), with
// bounded retries on replica failure and a latency-quantile hedge.
func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	rt.requests.Add(1)
	rt.earnRetry()
	reqID := rt.requestID(w, r)
	body, err := rt.readBody(w, r)
	if err != nil {
		rt.failRouter(w, http.StatusRequestEntityTooLarge, err, false)
		return
	}
	key := "solve:" + strconv.FormatUint(KeyHash(string(body)), 16)
	sp, ctx := obs.StartSpan(r.Context(), rt.tracer, "cluster.route",
		obs.Str("endpoint", "solve"), obs.Str("request_id", reqID), obs.Str("key", key))

	start := time.Now()
	sr, err := rt.hedgedSolve(ctx, sp, key, reqID, body)
	if err != nil {
		sp.EndErr(err)
		rt.failRouter(w, http.StatusBadGateway, err, false)
		return
	}
	if sr.status < 400 {
		rt.solveLat.Observe(time.Since(start).Seconds())
	}
	sp.SetAttr(obs.Int("status", sr.status))
	sp.End()
	sr.send(w)
}

// hedgedSolve races the solve across key's replica preference order:
// sequential bounded retries on failure, plus — once the latency histogram
// is warm — a hedge to the next replica when the current attempt outlives
// the configured quantile. The first acceptable answer wins; the loser's
// context is cancelled.
func (rt *Router) hedgedSolve(ctx context.Context, span *obs.Span, key, reqID string, body []byte) (*shardResponse, error) {
	cands := rt.candidates(key)
	maxAttempts := rt.cfg.MaxAttempts
	if maxAttempts > len(cands) {
		maxAttempts = len(cands)
	}

	type outcome struct {
		sr    *shardResponse
		err   error
		hedge bool
	}
	results := make(chan outcome, len(cands))
	actx, cancel := context.WithCancel(ctx)
	defer cancel()

	next := 0
	inflight := 0
	launch := func(hedge bool) {
		shard := cands[next]
		next++
		inflight++
		go func() {
			sr, err := rt.forward(actx, span, shard, http.MethodPost, "/solve", reqID, body)
			results <- outcome{sr: sr, err: err, hedge: hedge}
		}()
	}
	launch(false)

	var hedgeTimer <-chan time.Time
	hedged := false
	if d := rt.hedgeDelay(); d > 0 && len(cands) > 1 {
		t := time.NewTimer(d)
		defer t.Stop()
		hedgeTimer = t.C
	}

	attempts := 1
	var lastErr error
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-hedgeTimer:
			hedgeTimer = nil
			if next < len(cands) {
				hedged = true
				rt.hedges.Inc()
				span.SetAttr(obs.Int("hedged", 1))
				launch(true)
			}
		case out := <-results:
			inflight--
			if !retryable(out.sr, out.err) {
				if out.hedge {
					rt.hedgeWins.Inc()
					span.SetAttr(obs.Int("hedge_win", 1))
				}
				return out.sr, nil
			}
			if out.err != nil {
				lastErr = out.err
			} else {
				lastErr = fmt.Errorf("shard answered HTTP %d", out.sr.status)
			}
			// The attempt failed: retry on the next replica if attempts,
			// budget, and candidates allow; otherwise wait out any
			// still-running hedge, then report.
			canRetry := attempts < maxAttempts && next < len(cands) && rt.retryAllowed()
			if canRetry {
				if backoff := rt.cfg.RetryBackoff << (attempts - 1); backoff > 0 && !hedged {
					select {
					case <-ctx.Done():
						return nil, ctx.Err()
					case <-time.After(backoff):
					}
				}
				rt.shards[cands[next]].retries.Inc()
				span.SetAttr(obs.Int("retries", attempts))
				attempts++
				launch(out.hedge)
				continue
			}
			if inflight == 0 {
				return nil, fmt.Errorf("all replicas failed (%d attempt(s)): %w", attempts, lastErr)
			}
		}
	}
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
	body, err := rt.readBody(w, r)
	if err != nil {
		rt.failRouter(w, http.StatusRequestEntityTooLarge, err, false)
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
	cands := rt.candidates(key)
	maxAttempts := rt.cfg.MaxAttempts
	if maxAttempts > len(cands) {
		maxAttempts = len(cands)
	}
	var (
		sr      *shardResponse
		lastErr error
		shard   int
	)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			if !rt.retryAllowed() {
				break
			}
			rt.shards[cands[attempt]].retries.Inc()
			select {
			case <-ctx.Done():
				sp.EndErr(ctx.Err())
				rt.failRouter(w, statusClientClosedRequest, ctx.Err(), false)
				return
			case <-time.After(rt.cfg.RetryBackoff << (attempt - 1)):
			}
		}
		shard = cands[attempt]
		sr, lastErr = rt.forward(ctx, sp, shard, http.MethodPost, path, reqID, body)
		if !retryable(sr, lastErr) {
			break
		}
		if lastErr == nil {
			lastErr = fmt.Errorf("shard answered HTTP %d", sr.status)
		}
		sr = nil
	}
	if sr == nil {
		sp.EndErr(lastErr)
		rt.failRouter(w, http.StatusBadGateway, fmt.Errorf("load placement failed: %w", lastErr), false)
		return
	}
	sp.SetAttr(obs.Int("status", sr.status), obs.Str("shard", rt.shards[shard].addr))
	if sr.status != http.StatusOK {
		sp.End()
		sr.send(w)
		return
	}

	// Rewrite the shard-local session ID into the routed form and remember
	// the pin.
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
	rt.sessions.Lock()
	rt.sessions.m[routed] = shard
	rt.sessions.Unlock()
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

	body, err := rt.readBody(w, r)
	if err != nil {
		rt.failRouter(w, http.StatusRequestEntityTooLarge, err, false)
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
		attempts = rt.cfg.MaxAttempts
	}
	var (
		sr      *shardResponse
		lastErr error
	)
	for a := 0; a < attempts; a++ {
		if a > 0 {
			if !rt.retryAllowed() {
				break
			}
			rt.shards[shard].retries.Inc()
			time.Sleep(rt.cfg.RetryBackoff << (a - 1))
		}
		sr, lastErr = rt.forward(ctx, sp, shard, r.Method, path, reqID, body)
		if !retryable(sr, lastErr) {
			break
		}
		sr = nil
	}
	if sr == nil {
		// The pinned shard did not answer: its session state must be
		// assumed lost. Tell the client to reload.
		sp.EndErr(lastErr)
		rt.dropSession(id)
		rt.sessionGone(w, id, fmt.Errorf("session %s shard failed: %v", id, lastErr))
		return
	}
	if retryable(sr, nil) {
		// The shard answered but is draining or out of time (503/504): the
		// session may be gone with it.
		sp.EndErr(fmt.Errorf("HTTP %d", sr.status))
		rt.dropSession(id)
		rt.sessionGone(w, id, fmt.Errorf("session %s shard answered HTTP %d", id, sr.status))
		return
	}
	if r.Method == http.MethodDelete && sr.status == http.StatusNoContent {
		rt.dropSession(id)
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

// dropSession forgets a routed session pin.
func (rt *Router) dropSession(id string) {
	rt.sessions.Lock()
	delete(rt.sessions.m, id)
	rt.sessions.Unlock()
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
	Hedges        int64        `json:"hedges"`
	HedgeWins     int64        `json:"hedge_wins"`
	Reloads       int64        `json:"reloads"`
	Sessions      int          `json:"sessions"`
	HedgeDelay    float64      `json:"hedge_delay_seconds"` // current, 0 = off/cold
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
	rt.sessions.Lock()
	nSessions := len(rt.sessions.m)
	rt.sessions.Unlock()
	st := RouterStats{
		UptimeSeconds: time.Since(rt.started).Seconds(),
		Requests:      rt.requests.Load(),
		Errors:        rt.errored.Load(),
		Hedges:        rt.hedges.Value(),
		HedgeWins:     rt.hedgeWins.Value(),
		Reloads:       rt.reloads.Value(),
		Sessions:      nSessions,
		HedgeDelay:    rt.hedgeDelay().Seconds(),
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
