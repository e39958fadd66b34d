package cluster

import (
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// HarnessConfig configures an in-process cluster harness: K shard servers
// (each a full serve.Server with its own component cache — shared-nothing,
// exactly like separate processes) on real loopback TCP listeners, fronted
// by a Router on its own listener. Tests and `mc3replay -cluster -shards K`
// use it when no external fleet is given; the CI smoke job exercises the
// same topology with genuinely separate OS processes.
type HarnessConfig struct {
	// Shards is the shard count (default 2).
	Shards int
	// ShardConfig configures every shard server (DefaultConfig when zero;
	// detected by an empty Algo).
	ShardConfig serve.Config
	// Router configures the fronting router; its Shards list is filled in
	// by the harness.
	Router RouterConfig
	// Tracer is handed to every shard server (nil for none).
	Tracer *obs.Tracer
}

// harnessShard is one in-process shard: its server and listener.
type harnessShard struct {
	server   *serve.Server
	hs       *http.Server
	killed   atomic.Bool
	doneServ chan struct{}
}

// Harness is a running in-process cluster.
type Harness struct {
	shards    []*harnessShard
	router    *Router
	routerHS  *http.Server
	routerURL string
	doneServ  chan struct{}
}

// StartHarness boots the shards and the router. Callers must Close it.
func StartHarness(cfg HarnessConfig) (*Harness, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 2
	}
	if cfg.ShardConfig.Algo == "" {
		cfg.ShardConfig = serve.DefaultConfig()
	}

	h := &Harness{}
	// Listen first and sort the resulting URLs so harness shard indices
	// coincide with ring indices (the ring sorts its membership list the
	// same way): shard i here IS the shard a routed session ID "c<i>-…"
	// names, which KillShard callers rely on.
	listeners := make([]net.Listener, cfg.Shards)
	addrs := make([]string, cfg.Shards)
	byURL := make(map[string]net.Listener, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("cluster: shard %d listener: %w", i, err)
		}
		listeners[i] = ln
		addrs[i] = "http://" + ln.Addr().String()
		byURL[addrs[i]] = ln
	}
	sort.Strings(addrs)
	for i, url := range addrs {
		srv, err := serve.New(cfg.ShardConfig, cfg.Tracer)
		if err != nil {
			for _, l := range byURL {
				l.Close()
			}
			h.Close()
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		sh := &harnessShard{server: srv, hs: &http.Server{Handler: srv}, doneServ: make(chan struct{})}
		go func(sh *harnessShard, ln net.Listener) {
			defer close(sh.doneServ)
			sh.hs.Serve(ln)
		}(sh, byURL[url])
		h.shards = append(h.shards, sh)
	}

	rcfg := cfg.Router
	rcfg.Shards = addrs
	if rcfg.ProbeInterval == 0 {
		rcfg.ProbeInterval = 100 * time.Millisecond
	}
	router, err := NewRouter(rcfg)
	if err != nil {
		h.Close()
		return nil, err
	}
	h.router = router
	router.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.Close()
		return nil, fmt.Errorf("cluster: router listener: %w", err)
	}
	h.routerURL = "http://" + ln.Addr().String()
	h.routerHS = &http.Server{Handler: router}
	h.doneServ = make(chan struct{})
	go func() {
		defer close(h.doneServ)
		h.routerHS.Serve(ln)
	}()
	return h, nil
}

// RouterURL returns the router's base URL.
func (h *Harness) RouterURL() string { return h.routerURL }

// Router returns the fronting router (for stats and metrics assertions).
func (h *Harness) Router() *Router { return h.router }

// ShardServer returns shard i's in-process server.
func (h *Harness) ShardServer(i int) *serve.Server { return h.shards[i].server }

// KillShard hard-stops shard i: the listener closes and in-flight
// connections are torn down, like a process crash (no drain, no goodbye).
// The router's breaker discovers the corpse through request failures and
// probes.
func (h *Harness) KillShard(i int) {
	sh := h.shards[i]
	if sh.killed.Swap(true) {
		return
	}
	sh.hs.Close()
	<-sh.doneServ
}

// Close tears down the router and every shard.
func (h *Harness) Close() {
	if h.routerHS != nil {
		h.routerHS.Close()
		<-h.doneServ
	}
	if h.router != nil {
		h.router.Close()
	}
	for i := range h.shards {
		h.KillShard(i)
	}
}
