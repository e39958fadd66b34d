// Command mc3bench regenerates the paper's experimental study (Section 6):
// Table 1, Figures 3a–3f, and the repository's ablations, printing each as
// an aligned text table.
//
// Usage:
//
//	mc3bench                   # full paper-scale suite (minutes)
//	mc3bench -quick            # reduced-scale smoke run (seconds)
//	mc3bench -exp fig3a,fig3d  # selected experiments only
//	mc3bench -exp ablation     # all ablations
//	mc3bench -quick -json      # machine-readable report (BENCH_*.json format)
//
// Observability: -spans traces every solve as JSON lines, -log-spans logs
// spans through log/slog, -cpuprofile/-memprofile/-trace write the standard
// Go profiles, and -debug-addr serves /debug/pprof, /debug/vars, and
// /metrics for the duration of the run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/solver"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mc3bench:", err)
		os.Exit(1)
	}
}

// run executes the selected experiments, writing tables to out and progress
// to errw.
func run(args []string, out, errw io.Writer) (retErr error) {
	fs := flag.NewFlagSet("mc3bench", flag.ContinueOnError)
	var (
		quick    = fs.Bool("quick", false, "run at reduced scale")
		seed     = fs.Int64("seed", 1, "dataset generation seed")
		exps     = fs.String("exp", "all", "comma-separated experiments: table1,fig3a,fig3b,fig3c,fig3d,fig3e,fig3f,ablation,all")
		repeats  = fs.Int("repeats", 1, "timing repetitions (min reported)")
		format   = fs.String("format", "text", "output format: text|csv|markdown")
		asJSON   = fs.Bool("json", false, "emit one JSON report instead of tables (the BENCH_*.json format; implies -stats data when -stats is set)")
		seeds    = fs.Int("seeds", 1, "run each experiment under this many seeds and report means")
		timeout  = fs.Duration("timeout", 0, "abort any individual solve after this wall time (0 = no limit)")
		stats    = fs.Bool("stats", false, "print accumulated solve statistics after the run")
		useCache = fs.Bool("cache", false, "share one component-solution cache across every solve of the run and report its hit/miss stats")
		streamN  = fs.Int64("stream", 0, "query count for the streaming experiments (stream-gap/stream-mem; 0 = suite default, 1M full / 50k quick)")
		parts    = fs.Int("partitions", 0, "partition count for the streamed synthetic load (0 = suite default)")
		gaps     = fs.String("gap", "", "comma-separated certified-gap targets for stream-gap (e.g. 0,0.02,0.1; 0 = exact arm)")
		sample   = fs.Int("sample", 0, "initial sample size for sampling-based solves (0 = solver default)")
	)
	var obsCfg obs.CLIConfig
	obsCfg.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
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
	if obsCLI.DebugAddr != "" {
		fmt.Fprintf(errw, "mc3bench: debug server on http://%s\n", obsCLI.DebugAddr)
	}

	var rep *bench.Report
	if *asJSON {
		rep = &bench.Report{
			Tool: "mc3bench", Generated: time.Now().UTC(),
			Quick: *quick, Seed: *seed, Seeds: *seeds, Repeats: *repeats,
			TimeoutSecs: timeout.Seconds(),
		}
	}
	render := func(tab *bench.Table, elapsed time.Duration) error {
		if rep != nil {
			rep.AddTable(tab, elapsed)
			return nil
		}
		switch *format {
		case "csv":
			fmt.Fprintf(out, "# %s: %s\n", tab.ID, tab.Title)
			return tab.RenderCSV(out)
		case "markdown":
			tab.RenderMarkdown(out)
			return nil
		default:
			tab.Render(out)
			return nil
		}
	}
	if *format != "text" && *format != "csv" && *format != "markdown" {
		return fmt.Errorf("unknown -format %q", *format)
	}

	var cfg bench.Config
	if *quick {
		cfg = bench.Quick(*seed)
	} else {
		cfg = bench.Config{Seed: *seed}.Defaults()
	}
	cfg.Repeats = *repeats
	cfg.Timeout = *timeout
	if *streamN > 0 {
		cfg.StreamQueries = *streamN
	}
	if *parts > 0 {
		cfg.StreamPartitions = *parts
	}
	if *gaps != "" {
		for _, g := range strings.Split(*gaps, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(g), 64)
			if err != nil || v < 0 {
				return fmt.Errorf("invalid -gap value %q", g)
			}
			cfg.GapTargets = append(cfg.GapTargets, v)
		}
	}
	cfg.SampleSize = *sample
	cfg.Tracer = obsCLI.Tracer
	if *stats {
		cfg.Stats = new(solver.SolveStats)
	}
	if *useCache {
		cfg.Cache = cache.New(cache.Config{})
	}

	runners := map[string]func(bench.Config) (*bench.Table, error){
		"table1":     bench.Table1,
		"fig3a":      bench.Figure3a,
		"fig3b":      bench.Figure3b,
		"fig3c":      bench.Figure3c,
		"fig3d":      bench.Figure3d,
		"fig3e":      bench.Figure3e,
		"fig3f":      bench.Figure3f,
		"stream-gap": bench.StreamGap,
		"stream-mem": bench.StreamMem,
	}
	order := []string{"table1", "fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f"}

	var selected []string
	wantAblation := false
	for _, e := range strings.Split(*exps, ",") {
		e = strings.TrimSpace(e)
		switch e {
		case "", "all":
			selected = append(selected, order...)
			wantAblation = true
		case "ablation", "ablations":
			wantAblation = true
		case "stream":
			// The streaming experiments run at ≥1M queries by default, so
			// they are opt-in rather than part of "all".
			selected = append(selected, "stream-gap", "stream-mem")
		default:
			if _, ok := runners[e]; !ok {
				return fmt.Errorf("unknown experiment %q", e)
			}
			selected = append(selected, e)
		}
	}

	seen := map[string]bool{}
	start := time.Now()
	var mem *bench.MemCapture
	if rep != nil {
		mem = bench.StartMemCapture()
	}
	for _, name := range selected {
		if seen[name] {
			continue
		}
		seen[name] = true
		t0 := time.Now()
		var tab *bench.Table
		var err error
		if *seeds > 1 {
			seedList := make([]int64, *seeds)
			for i := range seedList {
				seedList[i] = cfg.Seed + int64(i)
			}
			tab, err = bench.Aggregate(runners[name], cfg, seedList)
		} else {
			tab, err = runners[name](cfg)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := render(tab, time.Since(t0)); err != nil {
			return err
		}
		fmt.Fprintf(errw, "mc3bench: %s done in %v\n", name, time.Since(t0).Round(time.Millisecond))
	}
	if wantAblation {
		t0 := time.Now()
		tabs, err := bench.Ablations(cfg)
		if err != nil {
			return fmt.Errorf("ablations: %w", err)
		}
		elapsed := time.Since(t0)
		for _, tab := range tabs {
			if err := render(tab, elapsed/time.Duration(len(tabs))); err != nil {
				return err
			}
		}
	}
	if rep != nil {
		rep.TotalSeconds = time.Since(start).Seconds()
		rep.Stats = cfg.Stats
		rep.Mem = mem.Report()
		if cfg.Cache != nil {
			st := cfg.Cache.Stats()
			rep.Cache = &st
		}
		if err := rep.Write(out); err != nil {
			return err
		}
	} else {
		if cfg.Stats != nil {
			fmt.Fprintln(out, "== solve stats (accumulated across the run) ==")
			cfg.Stats.Render(out)
		}
		if cfg.Cache != nil {
			st := cfg.Cache.Stats()
			fmt.Fprintf(out, "component cache: %d hits / %d misses (%.1f%% hit rate), %d entries, %d evictions\n",
				st.Hits, st.Misses, 100*st.HitRate(), st.Entries, st.Evictions)
		}
	}
	fmt.Fprintf(errw, "mc3bench: total %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
