package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/incr"
	"repro/internal/serve"
)

// clusterArgs carries the -cluster flag set into runCluster.
type clusterArgs struct {
	streamPath  string
	routerURL   string
	shards      int
	algo        string
	window      float64
	uniformCost float64
	parallel    int
	validate    bool
	asJSON      bool
	outPath     string
	seed        int64
}

// runCluster replays a session bundle against a sharded cluster with the
// per-batch differential check. Differential failures (cluster cost !=
// shadow engine cost on any batch) return an error, so the process exits
// non-zero — the CI smoke gate.
func runCluster(a clusterArgs, out, errw io.Writer) error {
	bundle, err := readBundle(a.streamPath)
	if err != nil {
		return err
	}
	if len(bundle) == 0 {
		return fmt.Errorf("bundle %s has no sessions", a.streamPath)
	}
	ctx := context.Background()
	start := time.Now()

	routerURL := a.routerURL
	var h *cluster.Harness
	if routerURL == "" {
		// In-process fleet: real TCP listeners, shared-nothing shard caches.
		h, err = cluster.StartHarness(cluster.HarnessConfig{
			Shards:      a.shards,
			ShardConfig: shardConfig(a),
		})
		if err != nil {
			return err
		}
		defer h.Close()
		routerURL = h.RouterURL()
		fmt.Fprintf(errw, "mc3replay: cluster harness up — router %s, %d shard(s)\n", routerURL, a.shards)
	} else {
		fmt.Fprintf(errw, "mc3replay: replaying against external router %s\n", routerURL)
	}

	res, err := cluster.ReplayBundle(ctx, cluster.ReplayConfig{
		RouterURL:   routerURL,
		Algo:        clusterAlgo(a.algo),
		Window:      a.window,
		UniformCost: a.uniformCost,
		Parallel:    a.parallel,
		Validate:    a.validate,
		Log:         errw,
	}, bundle)
	if err != nil {
		return fmt.Errorf("cluster differential: %w", err)
	}
	fmt.Fprintf(errw, "mc3replay: differential clean — %d sessions, %d batches, %d failover reload(s); every batch cost matches the shadow engine exactly\n",
		res.Sessions, len(res.Batches), res.Reloads)

	tab := buildClusterTable(res)
	if a.outPath != "" {
		f, err := os.Create(a.outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if a.asJSON {
		rep := &bench.Report{
			Tool: "mc3replay", Generated: time.Now().UTC(),
			Seed: a.seed, Seeds: 1, Repeats: 1,
		}
		rep.AddTable(tab, time.Since(start))
		rep.TotalSeconds = time.Since(start).Seconds()
		return rep.Write(out)
	}
	tab.Render(out)
	return nil
}

// readBundle loads a session bundle from path ("-" = stdin).
func readBundle(path string) ([]incr.SessionStream, error) {
	if path == "-" {
		return incr.ReadSessionBundle(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return incr.ReadSessionBundle(f)
}

// shardConfig builds the shard server configuration from the replay flags.
func shardConfig(a clusterArgs) serve.Config {
	cfg := serve.DefaultConfig()
	cfg.Parallel = a.parallel
	cfg.Validate = a.validate
	cfg.Flight = 0 // replay harness shards skip the flight recorder
	return cfg
}

// clusterAlgo restricts -algo to the session vocabulary (the cluster path
// is all sessions; the solver-only names fall back to auto).
func clusterAlgo(algo string) string {
	switch algo {
	case incr.AlgoGeneral, incr.AlgoKTwo:
		return algo
	}
	return incr.AlgoAuto
}

// buildClusterTable shapes the replay records as a bench table.
func buildClusterTable(res *cluster.ReplayResult) *bench.Table {
	tab := &bench.Table{
		ID:     "cluster_replay",
		Title:  "cluster replay: per-batch cost (differential-checked) and latency",
		XLabel: "session:batch",
		Unit:   "mixed (seconds / counts / cost)",
		Notes:  "router_seconds is the HTTP round-trip through the router; every batch's cost matched a local shadow incremental engine exactly; reloaded=1 marks batches delivered via failover reload",
	}
	series := []bench.Series{
		{Name: "deltas"}, {Name: "cost"},
		{Name: "router_seconds"}, {Name: "shadow_seconds"}, {Name: "reloaded"},
	}
	for _, b := range res.Batches {
		tab.XValues = append(tab.XValues, fmt.Sprintf("%s:%d", b.Session, b.Batch))
		series[0].Values = append(series[0].Values, float64(b.Deltas))
		series[1].Values = append(series[1].Values, b.Cost)
		series[2].Values = append(series[2].Values, b.RouterSecs)
		series[3].Values = append(series[3].Values, b.ShadowSecs)
		reloaded := 0.0
		if b.Reloaded {
			reloaded = 1
		}
		series[4].Values = append(series[4].Values, reloaded)
	}
	tab.Series = series
	return tab
}
