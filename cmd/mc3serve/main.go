// Command mc3serve is a long-lived HTTP daemon that answers MC³ solve
// requests. Where mc3solve pays the full solve cost on every invocation, the
// daemon keeps a process-wide component-solution cache (internal/cache), so
// query loads that repeat components — the normal shape of production query
// logs — are answered increasingly from memory. The server itself lives in
// internal/serve; this command is flag parsing, signal handling, and the
// cluster router mode.
//
// Usage:
//
//	mc3serve [-addr :8080] [-algo auto] [-wsc auto] [-prep full]
//	         [-engine dinic] [-parallel -1] [-cache-size 4096]
//	         [-request-timeout 30s] [-max-body 8388608]
//	         [-max-sessions 64] [-drain-grace 0]
//
// Router mode (see docs/CLUSTER.md):
//
//	mc3serve -route shard1:8080,shard2:8080 [-addr :8080] [-probe-interval 500ms]
//
// With -route the process serves no solves itself: it proxies the same API
// over the listed shards — sessions pinned by consistent hashing, stateless
// solves fanned by payload hash with budgeted retries, dead shards
// circuit-broken out of rotation.
//
// API (see docs/SERVING.md and docs/INCREMENTAL.md):
//
//	POST   /solve      — body: instance JSON (the mc3solve/textio format);
//	                     response: {"cost", "classifiers", "queries",
//	                     "seconds", "algorithm", "cache_hit_rate"}.
//	POST   /load       — create an incremental session from an instance.
//	POST   /session/{id}/delta    — apply a delta batch to a session.
//	GET    /session/{id}/solution — a session's current solution.
//	DELETE /session/{id}          — drop a session.
//	GET    /healthz    — liveness probe, "ok".
//	GET    /readyz     — readiness probe: "ready", flipping to 503 the moment
//	                     a shutdown drain starts (routers and load balancers
//	                     stop sending before the listener closes).
//	GET    /stats      — JSON snapshot: uptime, request counters, cache and
//	                     session stats, solve-latency quantiles, scheduler
//	                     counters, flight-recorder counters (in router mode:
//	                     per-shard requests/errors/retries/breaker state and
//	                     latency quantiles).
//	GET    /metrics    — Prometheus text exposition of the process registry.
//	GET    /debug/requests    — flight recorder: recent request traces.
//	GET    /debug/trace/{id}  — one retained trace by request or span ID.
//
// Every solving endpoint propagates X-Request-ID (honored inbound, echoed
// outbound, generated when absent) and runs under a root span retained by an
// in-memory flight recorder (-flight); slow or failed requests are
// additionally appended to -slow-log as JSONL.
//
// During shutdown drain, new requests are answered 503 with a Retry-After
// header while in-flight requests complete; -drain-grace holds the listener
// open that long after /readyz flips, giving health probers time to notice.
//
// Each request is solved under its own deadline: the request context (client
// disconnect cancels the solve) bounded by -request-timeout. Timeouts answer
// 504, client cancellations 499, malformed or infeasible instances 4xx.
// SIGINT/SIGTERM drain in-flight requests before exit.
//
// Observability: the standard flags (-spans, -log-spans, -cpuprofile,
// -memprofile, -trace, -debug-addr) work as in the other CLIs; /metrics is
// additionally served on the main address so scraping needs no second port.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mc3serve:", err)
		os.Exit(1)
	}
}

// run parses flags, builds the server (or router), and serves until a
// termination signal arrives; logs go to logw.
func run(args []string, logw io.Writer) (retErr error) {
	fs := flag.NewFlagSet("mc3serve", flag.ContinueOnError)
	cfg := serve.DefaultConfig()
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		slowLog    = fs.String("slow-log", "", "append a JSONL record with the full span tree of every slow or failed request to this file")
		drainGrace = fs.Duration("drain-grace", 0, "hold the listener open this long after /readyz flips to 503 on shutdown, so health probers notice before connections refuse")

		// Router mode.
		route         = fs.String("route", "", "comma-separated shard addresses: run as a cluster router instead of a solve server (see docs/CLUSTER.md)")
		probeInterval = fs.Duration("probe-interval", 500*time.Millisecond, "router: shard /readyz probing period (0 disables)")
	)
	fs.StringVar(&cfg.Algo, "algo", cfg.Algo, "algorithm: auto|ktwo|general|short-first|portfolio")
	fs.StringVar(&cfg.WSC, "wsc", cfg.WSC, "Algorithm 3 set-cover engine: auto|greedy|primal-dual|lp-rounding|auto-lp")
	fs.StringVar(&cfg.Prep, "prep", cfg.Prep, "preprocessing level: full|minimal")
	fs.StringVar(&cfg.Engine, "engine", cfg.Engine, "Algorithm 2 max-flow engine: dinic|push-relabel")
	fs.IntVar(&cfg.Parallel, "parallel", cfg.Parallel, "components solved concurrently per request: 0 or 1 solves serially, n > 1 uses n workers, -1 (the default) uses GOMAXPROCS")
	fs.IntVar(&cfg.CacheSize, "cache-size", cache.DefaultMaxEntries, "component-solution cache bound in 4 KiB slots: an entry holds one per started 4 KiB of its key and picks (0 disables the cache)")
	fs.DurationVar(&cfg.ReqTimeout, "request-timeout", cfg.ReqTimeout, "per-request solve deadline (0 = client-controlled only)")
	fs.Int64Var(&cfg.MaxBody, "max-body", cfg.MaxBody, "maximum request body bytes")
	fs.IntVar(&cfg.MaxLoadQueries, "max-load-queries", cfg.MaxLoadQueries, "reject /load bodies above this many queries with 413 pointing at the mc3solve -stream offline path (0 disables)")
	fs.BoolVar(&cfg.Validate, "validate", cfg.Validate, "verify every solution before answering")
	fs.IntVar(&cfg.MaxSessions, "max-sessions", cfg.MaxSessions, "maximum live incremental sessions")
	fs.IntVar(&cfg.Flight, "flight", cfg.Flight, "span trees retained by the in-memory flight recorder, served at /debug/requests (0 disables)")
	fs.DurationVar(&cfg.SlowThreshold, "slow-threshold", cfg.SlowThreshold, "requests at or above this latency are captured in -slow-log")
	var obsCfg obs.CLIConfig
	obsCfg.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *slowLog != "" && cfg.Flight <= 0 {
		return fmt.Errorf("-slow-log requires the flight recorder (-flight > 0)")
	}
	if *slowLog != "" {
		w, err := os.OpenFile(*slowLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := w.Close(); cerr != nil && retErr == nil {
				retErr = cerr
			}
		}()
		cfg.SlowW = w
	}

	obsCLI, err := obsCfg.Start()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := obsCLI.Close(); cerr != nil && retErr == nil {
			retErr = cerr
		}
	}()

	if *route != "" {
		rcfg := cluster.RouterConfig{
			Shards:        strings.Split(*route, ","),
			ProbeInterval: *probeInterval,
			MaxBody:       cfg.MaxBody,
			Registry:      obs.NewRegistry(),
			Tracer:        obsCLI.Tracer,
		}
		router, err := cluster.NewRouter(rcfg)
		if err != nil {
			return err
		}
		router.Start()
		defer router.Close()
		banner := fmt.Sprintf("mc3serve: routing %d shard(s): %s", len(rcfg.Shards), *route)
		return serveUntilSignal(logw, *addr, banner, obsCLI.DebugAddr, *drainGrace, router, router.StartDrain, func(w io.Writer) {
			st := router.Stats()
			fmt.Fprintf(w, "mc3serve: routed %d requests (%d errors)\n", st.Requests, st.Errors)
		})
	}

	srv, err := serve.New(cfg, obsCLI.Tracer)
	if err != nil {
		return err
	}
	banner := fmt.Sprintf("mc3serve: cache %d slots, timeout %v", cfg.CacheSize, cfg.ReqTimeout)
	return serveUntilSignal(logw, *addr, banner, obsCLI.DebugAddr, *drainGrace, srv, srv.StartDrain, func(w io.Writer) {
		requests, errored := srv.Counts()
		fmt.Fprintf(w, "mc3serve: served %d solves (%d errors), cache hit rate %.1f%%\n",
			requests, errored, 100*srv.CacheStats().HitRate())
	})
}

// serveUntilSignal runs handler on addr until SIGINT/SIGTERM, then drains:
// startDrain flips /readyz (and everything else) to 503, the listener stays
// up for drainGrace so probers notice, and Shutdown waits out in-flight
// requests. finalLog reports lifetime counters on the way out.
func serveUntilSignal(logw io.Writer, addr, banner, debugAddr string, drainGrace time.Duration, handler http.Handler, startDrain func(), finalLog func(io.Writer)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	fmt.Fprintf(logw, "mc3serve: listening on http://%s (%s)\n", ln.Addr(), banner)
	if debugAddr != "" {
		fmt.Fprintf(logw, "mc3serve: debug server on http://%s\n", debugAddr)
	}

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(logw, "mc3serve: shutting down, draining in-flight requests")
	startDrain()
	if drainGrace > 0 {
		time.Sleep(drainGrace)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	finalLog(logw)
	return nil
}
