package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workload"
)

// testShardConfig is a small, fast shard configuration for tests.
func testShardConfig() serve.Config {
	cfg := serve.DefaultConfig()
	cfg.CacheSize = 256
	cfg.ReqTimeout = 10 * time.Second
	cfg.Flight = 0
	cfg.MaxSessions = 32
	return cfg
}

func startTestHarness(t *testing.T, cfg HarnessConfig) *Harness {
	t.Helper()
	if cfg.ShardConfig.Algo == "" {
		cfg.ShardConfig = testShardConfig()
	}
	h, err := StartHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

// paperInstance is the serve package's running example in the wire format.
const paperInstance = `{
	"queries": [
		["team:juventus", "color:white", "brand:adidas"],
		["team:chelsea", "brand:adidas"],
		["color:white", "brand:adidas"]
	],
	"default_cost": 10,
	"costs": {
		"brand:adidas": 4,
		"color:white": 5,
		"team:chelsea": 7,
		"team:juventus": 6,
		"brand:adidas|color:white": 8,
		"brand:adidas|team:chelsea": 9
	}
}`

func doReq(t *testing.T, method, url, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestClusterSolveAndSessionAPI drives the full proxied API through the
// router: stateless solve, session load/delta/solution/delete with routed
// session IDs, request-ID propagation, readiness, stats, and metrics.
func TestClusterSolveAndSessionAPI(t *testing.T) {
	h := startTestHarness(t, HarnessConfig{Shards: 2})
	base := h.RouterURL()

	// Stateless solve through the router; a repeat must agree (the solver
	// is deterministic, and routing must not change the answer).
	resp, raw := doReq(t, http.MethodPost, base+"/solve", paperInstance,
		map[string]string{"X-Request-ID": "req-test-42"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/solve: HTTP %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "req-test-42" {
		t.Errorf("X-Request-ID not propagated: %q", got)
	}
	var solve struct {
		Cost float64 `json:"cost"`
	}
	if err := json.Unmarshal(raw, &solve); err != nil {
		t.Fatal(err)
	}
	if solve.Cost <= 0 {
		t.Errorf("solve cost %v, want > 0", solve.Cost)
	}
	_, raw2 := doReq(t, http.MethodPost, base+"/solve", paperInstance, nil)
	var solve2 struct {
		Cost float64 `json:"cost"`
	}
	if err := json.Unmarshal(raw2, &solve2); err != nil {
		t.Fatal(err)
	}
	if solve2.Cost != solve.Cost {
		t.Errorf("repeat solve cost %v, first %v", solve2.Cost, solve.Cost)
	}

	// Session lifecycle through the router.
	resp, raw = doReq(t, http.MethodPost, base+"/load", paperInstance, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/load: HTTP %d: %s", resp.StatusCode, raw)
	}
	var load struct {
		Session string  `json:"session"`
		Cost    float64 `json:"cost"`
		Shard   string  `json:"shard"`
	}
	if err := json.Unmarshal(raw, &load); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(load.Session, "c") || !strings.Contains(load.Session, "-") {
		t.Fatalf("session ID %q not in routed form c<shard>-<id>", load.Session)
	}
	if load.Cost != solve.Cost {
		t.Errorf("load cost %v, /solve cost %v", load.Cost, solve.Cost)
	}
	if load.Shard == "" {
		t.Error("load answer does not name its shard")
	}

	resp, raw = doReq(t, http.MethodPost, base+"/session/"+load.Session+"/delta",
		`{"deltas":[{"op":"rm","props":["team:chelsea","brand:adidas"]}]}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/delta: HTTP %d: %s", resp.StatusCode, raw)
	}
	var delta struct {
		Session string  `json:"session"`
		Cost    float64 `json:"cost"`
	}
	if err := json.Unmarshal(raw, &delta); err != nil {
		t.Fatal(err)
	}
	if delta.Session != load.Session {
		t.Errorf("delta answered session %q, want routed ID %q", delta.Session, load.Session)
	}

	resp, raw = doReq(t, http.MethodGet, base+"/session/"+load.Session+"/solution", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/solution: HTTP %d: %s", resp.StatusCode, raw)
	}
	resp, _ = doReq(t, http.MethodDelete, base+"/session/"+load.Session, "", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE session: HTTP %d", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodGet, base+"/session/bogus/solution", "", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("malformed session ID: HTTP %d, want 404", resp.StatusCode)
	}

	// Readiness, stats, metrics.
	resp, _ = doReq(t, http.MethodGet, base+"/readyz", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz: HTTP %d", resp.StatusCode)
	}
	resp, raw = doReq(t, http.MethodGet, base+"/stats", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats: HTTP %d", resp.StatusCode)
	}
	var st RouterStats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 2 || st.Requests == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
}

// TestClusterMetricsExposition: the router publishes mc3_cluster_* metrics
// in Prometheus text form.
func TestClusterMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	h := startTestHarness(t, HarnessConfig{Shards: 2, Router: RouterConfig{Registry: reg}})
	doReq(t, http.MethodPost, h.RouterURL()+"/solve", paperInstance, nil)
	resp, raw := doReq(t, http.MethodGet, h.RouterURL()+"/metrics", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	for _, want := range []string{"mc3_cluster_requests_total", "mc3_cluster_breaker_open", "mc3_cluster_shard_seconds"} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("metrics exposition lacks %s", want)
		}
	}
}

// testBundle generates a deterministic session bundle from a workload
// dataset: mostly adds walking the query pool, with removals and cost
// re-pricings mixed in (a miniature of mc3gen -sessions -deltas).
func testBundle(d *workload.Dataset, sessions, events int) []incr.SessionStream {
	out := make([]incr.SessionStream, sessions)
	for s := 0; s < sessions; s++ {
		var deltas []incr.Delta
		var live []core.PropSet
		for i := 0; i < events; i++ {
			t := float64(i)
			pick := (s*7 + i*3) % len(d.Queries)
			switch {
			case i%5 == 3 && len(live) > 0: // removal (oldest live query first)
				q := live[0]
				live = live[1:]
				deltas = append(deltas, incr.Delta{Time: t, Op: incr.OpRemove, Props: d.Universe.SetNames(q)})
			case i%7 == 5 && len(live) > 0: // re-pricing
				q := live[0]
				deltas = append(deltas, incr.Delta{
					Time: t, Op: incr.OpUpdateCost,
					Props: d.Universe.SetNames(q)[:1],
					Cost:  float64(1 + (i % 9)),
				})
			case (i == 1 || i%11 == 7) && len(live) > 0: // duplicate add (multiset count 2)
				// i == 1 puts a duplicate into the first batch, so the
				// materialized /load body must carry the multiset — a later
				// removal then exposes any lost multiplicity.
				q := live[0]
				live = append(live, q)
				deltas = append(deltas, incr.Delta{Time: t, Op: incr.OpAdd, Props: d.Universe.SetNames(q)})
			default:
				q := d.Queries[pick]
				live = append(live, q)
				deltas = append(deltas, incr.Delta{Time: t, Op: incr.OpAdd, Props: d.Universe.SetNames(q)})
			}
		}
		out[s] = incr.SessionStream{Name: fmt.Sprintf("s%d", s+1), Deltas: deltas}
	}
	return out
}

// replayDataset runs the cluster differential for one workload generator.
func replayDataset(t *testing.T, d *workload.Dataset) {
	t.Helper()
	h := startTestHarness(t, HarnessConfig{Shards: 2})
	res, err := ReplayBundle(context.Background(), ReplayConfig{
		RouterURL: h.RouterURL(),
		Window:    2.5, // a few events per batch
	}, testBundle(d, 3, 24))
	if err != nil {
		t.Fatalf("cluster differential failed: %v", err)
	}
	if res.Sessions != 3 || len(res.Batches) == 0 {
		t.Fatalf("replay incomplete: %d sessions, %d batches", res.Sessions, len(res.Batches))
	}
}

// The multi-process differential on all three workload generators: the
// cluster's cost equals the local incremental engine's after every batch
// (ReplayBundle errors on any mismatch).
func TestClusterDifferentialSynthetic(t *testing.T) {
	replayDataset(t, workload.Synthetic(80, 11))
}

func TestClusterDifferentialBestBuy(t *testing.T) {
	replayDataset(t, workload.BestBuy(11))
}

func TestClusterDifferentialPrivate(t *testing.T) {
	replayDataset(t, workload.Private(11))
}

// TestClusterFailover is the hammer: several sessions replay concurrently,
// and the shard pinning session s1 is hard-killed mid-replay. The replay
// must still finish with every batch's cost exact (no lost or
// double-applied batches — the differential check inside ReplayBundle
// enforces both), recovering via reload onto a healthy shard, and the
// router's breaker metrics must show the dead shard open.
func TestClusterFailover(t *testing.T) {
	reg := obs.NewRegistry()
	h := startTestHarness(t, HarnessConfig{
		Shards: 3,
		Router: RouterConfig{
			Registry:      reg,
			ProbeInterval: 50 * time.Millisecond,
		},
	})

	var killed atomic.Int32
	killedShard := make(chan int, 1)
	cfg := ReplayConfig{
		RouterURL:   h.RouterURL(),
		Window:      0.5, // one delta per batch: many round-trips to hammer
		Concurrency: 4,
		OnBatch: func(b BatchRecord) {
			// After session s1's third batch, crash the shard that owns it.
			if b.Session != "s1" || b.Batch != 2 || killed.Swap(1) != 0 {
				return
			}
			shard, _, _ := splitRouted(b.RemoteSession)
			h.KillShard(shard)
			killedShard <- shard
		},
	}
	res, err := ReplayBundle(context.Background(), cfg, testBundle(workload.Synthetic(60, 5), 4, 30))
	if err != nil {
		t.Fatalf("replay with mid-flight shard kill failed: %v", err)
	}
	if killed.Load() != 1 {
		t.Fatal("kill hook never fired")
	}
	if res.Reloads == 0 {
		t.Error("no failover reloads recorded despite a killed shard")
	}

	shard := <-killedShard
	addr := h.Router().Ring().Addr(shard)
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := h.Router().Stats()
		if st.Shards[shard].BreakerOpen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker for killed shard %s never opened: %+v", addr, st.Shards[shard])
		}
		time.Sleep(20 * time.Millisecond)
	}
	if v := reg.Gauge(fmt.Sprintf(`mc3_cluster_breaker_open{shard=%q}`, addr)).Value(); v != 1 {
		t.Errorf("mc3_cluster_breaker_open for %s = %v, want 1", addr, v)
	}
	if v := reg.Counter(fmt.Sprintf(`mc3_cluster_errors_total{shard=%q}`, addr)).Value(); v == 0 {
		t.Error("killed shard recorded no errors")
	}
}

// splitRouted parses a routed session ID "c<shard>-<rest>" (test-side
// mirror of the router's parser).
func splitRouted(id string) (int, string, error) {
	rest, ok := strings.CutPrefix(id, "c")
	if !ok {
		return 0, "", fmt.Errorf("bad routed id %q", id)
	}
	idx, rest, ok := strings.Cut(rest, "-")
	if !ok {
		return 0, "", fmt.Errorf("bad routed id %q", id)
	}
	n, err := strconv.Atoi(idx)
	return n, rest, err
}

// TestRouterNoHealthyShards: with every shard dead the router reports
// unready and fails solves fast with 502s.
func TestRouterNoHealthyShards(t *testing.T) {
	h := startTestHarness(t, HarnessConfig{
		Shards: 2,
		Router: RouterConfig{ProbeInterval: 30 * time.Millisecond},
	})
	h.KillShard(0)
	h.KillShard(1)

	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, _ := doReq(t, http.MethodGet, h.RouterURL()+"/readyz", "", nil)
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz still 200 with every shard dead")
		}
		time.Sleep(20 * time.Millisecond)
	}
	resp, raw := doReq(t, http.MethodPost, h.RouterURL()+"/solve", paperInstance, nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("/solve with dead fleet: HTTP %d, want 502: %s", resp.StatusCode, raw)
	}
}

// TestRouterDrain: a draining router answers everything 503 + Retry-After.
func TestRouterDrain(t *testing.T) {
	h := startTestHarness(t, HarnessConfig{Shards: 2})
	h.Router().StartDrain()
	resp, _ := doReq(t, http.MethodPost, h.RouterURL()+"/solve", paperInstance, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining router: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining router: no Retry-After header")
	}
}

// TestSessionGoneAnswersReloadHint: a delta against a session pinned to a
// dead shard answers 503 with the reload hint.
func TestSessionGoneAnswersReloadHint(t *testing.T) {
	h := startTestHarness(t, HarnessConfig{
		Shards: 2,
		Router: RouterConfig{ProbeInterval: 30 * time.Millisecond},
	})
	_, raw := doReq(t, http.MethodPost, h.RouterURL()+"/load", paperInstance, nil)
	var load struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(raw, &load); err != nil {
		t.Fatal(err)
	}
	shard, _, err := splitRouted(load.Session)
	if err != nil {
		t.Fatal(err)
	}
	h.KillShard(shard)

	resp, raw := doReq(t, http.MethodPost, h.RouterURL()+"/session/"+load.Session+"/delta",
		`{"deltas":[{"op":"add","props":["color:white"]}]}`, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("delta on dead shard: HTTP %d, want 503: %s", resp.StatusCode, raw)
	}
	var ans struct {
		Reload bool `json:"reload"`
	}
	if err := json.Unmarshal(raw, &ans); err != nil {
		t.Fatal(err)
	}
	if !ans.Reload {
		t.Fatalf("503 without reload hint: %s", raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("session-gone 503: no Retry-After header")
	}
}
