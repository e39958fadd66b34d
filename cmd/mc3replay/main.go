// Command mc3replay replays a timestamped delta stream (the mc3gen -deltas
// format) against the incremental solve engine and measures what
// incrementality buys: per batch it applies the deltas through
// internal/incr — re-solving only the dirty components — and, unless
// -no-baseline, also re-solves the materialized load from scratch, checking
// that both agree on the solution cost exactly and reporting the timings
// side by side.
//
// Usage:
//
//	mc3replay -stream deltas.txt [-load instance.json] [-algo auto]
//	          [-parallel -1] [-window 1] [-uniform-cost 1] [-no-baseline]
//	          [-validate] [-json] [-out report.json]
//
// Cluster mode (see docs/CLUSTER.md):
//
//	mc3replay -cluster -stream bundle.txt [-shards 2] [-router URL]
//
// -cluster reads -stream as a session bundle (mc3gen -sessions), boots an
// in-process router + -shards shard servers (or targets a running router
// via -router URL), replays every session over HTTP, and hard-differential-
// checks the cluster's cost against a local shadow engine after every
// batch — any disagreement is a non-zero exit.
//
// -load seeds the session with an instance file (its cost model prices all
// classifiers); without it, classifiers cost -uniform-cost. Events within
// -window seconds of stream time are applied as one batch. -json emits the
// BENCH_*.json report format (tool "mc3replay"); the default is a readable
// table plus a speedup summary.
//
// The observability flags (-spans, -log-spans, -cpuprofile, -memprofile,
// -trace, -debug-addr) work as in the other CLIs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/textio"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mc3replay:", err)
		os.Exit(1)
	}
}

// batchStat records one applied batch for the report.
type batchStat struct {
	time        float64 // stream time of the batch's first event
	deltas      int
	cost        float64
	components  int
	dirty       int
	incrSecs    float64
	scratchSecs float64 // NaN when -no-baseline
}

func run(args []string, out, errw io.Writer) (retErr error) {
	fs := flag.NewFlagSet("mc3replay", flag.ContinueOnError)
	var (
		streamPath  = fs.String("stream", "", "delta stream file (required; \"-\" = stdin)")
		loadPath    = fs.String("load", "", "instance file seeding the initial load and cost model")
		algo        = fs.String("algo", "auto", "algorithm: auto|general|ktwo")
		window      = fs.Float64("window", 1, "batch events within this many seconds of stream time")
		uniformCost = fs.Float64("uniform-cost", 1, "classifier cost when no -load file provides a cost model")
		noBaseline  = fs.Bool("no-baseline", false, "skip the from-scratch solve per batch (faster, no differential check)")
		parallel    = fs.Int("parallel", -1, "components solved concurrently per batch: 0 or 1 solves serially, n > 1 uses n workers, -1 (the default) uses GOMAXPROCS")
		validate    = fs.Bool("validate", false, "verify every solution against the instance")
		asJSON      = fs.Bool("json", false, "emit the BENCH_*.json report format")
		outPath     = fs.String("out", "", "output file (default stdout)")
		seed        = fs.Int64("seed", 0, "seed recorded in the JSON report")

		clusterMode = fs.Bool("cluster", false, "replay -stream as a session bundle against a sharded cluster, differential-checking every batch (see docs/CLUSTER.md)")
		routerURL   = fs.String("router", "", "cluster: replay against this running router instead of booting an in-process harness")
		shards      = fs.Int("shards", 2, "cluster: shard servers in the in-process harness")
	)
	var obsCfg obs.CLIConfig
	obsCfg.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *streamPath == "" {
		return fmt.Errorf("-stream is required")
	}
	if *window <= 0 {
		return fmt.Errorf("-window must be positive, got %v", *window)
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

	if *clusterMode {
		return runCluster(clusterArgs{
			streamPath:  *streamPath,
			routerURL:   *routerURL,
			shards:      *shards,
			algo:        *algo,
			window:      *window,
			uniformCost: *uniformCost,
			parallel:    *parallel,
			validate:    *validate,
			asJSON:      *asJSON,
			outPath:     *outPath,
			seed:        *seed,
		}, out, errw)
	}

	deltas, err := readStream(*streamPath)
	if err != nil {
		return err
	}
	if len(deltas) == 0 {
		return fmt.Errorf("stream %s has no events", *streamPath)
	}

	// Assemble the engine: universe + cost model from -load when given.
	u := core.NewUniverse()
	var cm core.CostModel = core.UniformCost(*uniformCost)
	var initial []incr.Delta
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			return err
		}
		file, err := textio.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		cm = file.CostModelFor(u)
		for _, q := range file.Queries {
			initial = append(initial, incr.Add(q...))
		}
	}
	tracer := obsCLI.Tracer
	opts := solver.DefaultOptions()
	opts.Validate = *validate
	opts.Parallelism = *parallel
	engine, err := incr.New(incr.Config{
		Costs:    cm,
		Universe: u,
		Algo:     *algo,
		Options:  opts,
		Tracer:   tracer,
	})
	if err != nil {
		return err
	}

	ctx := context.Background()
	start := time.Now()
	if len(initial) > 0 {
		if _, err := engine.Apply(ctx, initial); err != nil {
			return fmt.Errorf("installing -load instance: %w", err)
		}
		fmt.Fprintf(errw, "mc3replay: installed %d initial queries from %s\n", len(initial), *loadPath)
	}

	stats, err := replay(ctx, engine, tracer, deltas, *window, *algo, opts, !*noBaseline)
	if err != nil {
		return err
	}

	tab := buildTable(stats)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if *asJSON {
		rep := &bench.Report{
			Tool: "mc3replay", Generated: time.Now().UTC(),
			Seed: *seed, Seeds: 1, Repeats: 1,
		}
		rep.AddTable(tab, time.Since(start))
		rep.TotalSeconds = time.Since(start).Seconds()
		return rep.Write(out)
	}
	tab.Render(out)
	renderSummary(out, engine, stats)
	return nil
}

// readStream loads the delta stream from path ("-" = stdin).
func readStream(path string) ([]incr.Delta, error) {
	if path == "-" {
		return incr.ReadDeltaStream(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return incr.ReadDeltaStream(f)
}

// replay applies the stream batch by batch. With baseline set, every batch
// is followed by a from-scratch solve of the materialized load under the
// same options, and the two costs must agree exactly. Each batch runs under
// a "replay.batch" span carrying the batch index, sizes, and timings
// (incremental_ns, and baseline_ns when the baseline runs), so the engine's
// "incr.apply" span nests under it and a -spans trace shows replay runs with
// full batch context.
func replay(ctx context.Context, engine *incr.Engine, tracer *obs.Tracer, deltas []incr.Delta, window float64, algo string, opts solver.Options, baseline bool) ([]batchStat, error) {
	var stats []batchStat
	for lo := 0; lo < len(deltas); {
		hi := lo + 1
		for hi < len(deltas) && deltas[hi].Time < deltas[lo].Time+window {
			hi++
		}
		sp, sctx := obs.StartSpan(ctx, tracer, "replay.batch",
			obs.Int("batch", len(stats)), obs.Int("deltas", hi-lo),
			obs.F64("stream_time", deltas[lo].Time))
		res, err := engine.Apply(sctx, deltas[lo:hi])
		if err != nil {
			sp.EndErr(err)
			return nil, fmt.Errorf("batch at t=%gs: %w", deltas[lo].Time, err)
		}
		st := batchStat{
			time:        deltas[lo].Time,
			deltas:      res.Deltas,
			cost:        res.Cost,
			components:  res.Components,
			dirty:       res.Dirty,
			incrSecs:    res.Seconds,
			scratchSecs: math.NaN(),
		}
		sp.SetAttr(obs.Int("components", res.Components), obs.Int("dirty", res.Dirty),
			obs.F64("cost", res.Cost), obs.I64("incremental_ns", int64(res.Seconds*1e9)))
		if baseline {
			secs, cost, err := solveFromScratch(ctx, engine, algo, opts)
			if err != nil {
				sp.EndErr(err)
				return nil, fmt.Errorf("baseline at t=%gs: %w", deltas[lo].Time, err)
			}
			st.scratchSecs = secs
			sp.SetAttr(obs.I64("baseline_ns", int64(secs*1e9)))
			if cost != res.Cost {
				err := fmt.Errorf("differential mismatch at t=%gs: incremental cost %v, from-scratch cost %v",
					deltas[lo].Time, res.Cost, cost)
				sp.EndErr(err)
				return nil, err
			}
		}
		sp.End()
		stats = append(stats, st)
		lo = hi
	}
	return stats, nil
}

// solveFromScratch materializes the engine's live load and solves it whole,
// uncached — the cost an application without the incremental engine would
// pay on every change.
func solveFromScratch(ctx context.Context, engine *incr.Engine, algo string, opts solver.Options) (secs, cost float64, err error) {
	qs := engine.QuerySets()
	if len(qs) == 0 {
		return 0, 0, nil
	}
	inst, err := core.NewInstance(engine.Universe(), qs, engine.CostModel(), core.Options{})
	if err != nil {
		return 0, 0, err
	}
	fn := solver.General
	if algo == incr.AlgoKTwo || (algo != incr.AlgoGeneral && inst.MaxQueryLen() <= 2) {
		fn = solver.KTwo
	}
	opts.Context = ctx
	opts.Cache = nil
	opts.AmbientQueryLen = 0
	start := time.Now()
	sol, err := fn(inst, opts)
	if err != nil {
		return 0, 0, err
	}
	return time.Since(start).Seconds(), sol.Cost, nil
}

// buildTable shapes the batch records as a bench table: the incremental and
// from-scratch wall times side by side, with the dirty-vs-total component
// counts that explain the gap.
func buildTable(stats []batchStat) *bench.Table {
	tab := &bench.Table{
		ID:     "replay",
		Title:  "incremental vs from-scratch re-solve per delta batch",
		XLabel: "t(s)",
		Unit:   "mixed (seconds / counts / cost)",
		Notes:  "incremental_seconds re-solves dirty components only; fromscratch_seconds solves the whole materialized load uncached",
	}
	series := []bench.Series{
		{Name: "deltas"}, {Name: "components"}, {Name: "dirty_components"},
		{Name: "incremental_seconds"}, {Name: "fromscratch_seconds"}, {Name: "cost"},
	}
	for _, st := range stats {
		tab.XValues = append(tab.XValues, fmt.Sprintf("%g", st.time))
		series[0].Values = append(series[0].Values, float64(st.deltas))
		series[1].Values = append(series[1].Values, float64(st.components))
		series[2].Values = append(series[2].Values, float64(st.dirty))
		series[3].Values = append(series[3].Values, st.incrSecs)
		series[4].Values = append(series[4].Values, st.scratchSecs)
		series[5].Values = append(series[5].Values, st.cost)
	}
	tab.Series = series
	return tab
}

// renderSummary prints the aggregate speedup under the table.
func renderSummary(w io.Writer, engine *incr.Engine, stats []batchStat) {
	var incSecs, scratch float64
	var dirty, comps int64
	haveBaseline := false
	for _, st := range stats {
		incSecs += st.incrSecs
		dirty += int64(st.dirty)
		comps += int64(st.components)
		if !math.IsNaN(st.scratchSecs) {
			scratch += st.scratchSecs
			haveBaseline = true
		}
	}
	fmt.Fprintf(w, "\n%d batches: %.3fs incremental", len(stats), incSecs)
	if haveBaseline {
		speedup := math.Inf(1)
		if incSecs > 0 {
			speedup = scratch / incSecs
		}
		fmt.Fprintf(w, ", %.3fs from-scratch (%.1fx speedup)", scratch, speedup)
	}
	if comps > 0 {
		fmt.Fprintf(w, "; dirtied %d of %d component-batches (%.1f%%)", dirty, comps, 100*float64(dirty)/float64(comps))
	}
	est := engine.Stats()
	fmt.Fprintf(w, "\nengine: %d applies, %d deltas, %d splits, %d merges; cache: %d hits / %d misses\n",
		est.Applies, est.Deltas, est.Splits, est.Merges, engine.CacheStats().Hits, engine.CacheStats().Misses)
}
