// Command mc3solve solves an MC³ instance file with a chosen algorithm and
// reports the selected classifiers, total construction cost, and timing.
//
// Usage:
//
//	mc3solve -in instance.json [-algo auto] [-wsc auto] [-prep full] [-quiet]
//	         [-timeout 500ms] [-stats]
//	mc3solve -stream queries.log [-cost uniform:1] [-seal-window N] [-parallel -1]
//	mc3solve -in instance.json -analyze
//	mc3solve -in instance.json -budget B
//
// Each mode fails on a flag it does not read, naming the flag and the mode.
// -quiet and -json print the solution alone, so they refuse -stats,
// -explain and each other.
//
// Algorithms: auto (exact for k ≤ 2, Algorithm 3 otherwise), ktwo, general,
// short-first, exact, mixed, property-oriented, query-oriented, local-greedy.
//
// Observability: -spans traces the solve as JSON lines, -log-spans logs
// spans through log/slog, -cpuprofile/-memprofile/-trace write the standard
// Go profiles, and -debug-addr serves /debug/pprof, /debug/vars, and
// /metrics for the duration of the run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prep"
	"repro/internal/solver"
	"repro/internal/textio"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mc3solve:", err)
		os.Exit(1)
	}
}

// run executes the tool against args, writing results to out.
func run(args []string, out io.Writer) (retErr error) {
	fs := flag.NewFlagSet("mc3solve", flag.ContinueOnError)
	var obsCfg obs.CLIConfig
	obsCfg.RegisterFlags(fs)
	var obsFlags []string // every mode reads these
	fs.VisitAll(func(f *flag.Flag) { obsFlags = append(obsFlags, f.Name) })
	var (
		inPath   = fs.String("in", "", "instance JSON file (this or -stream is required)")
		streamIn = fs.String("stream", "", "plain-text query log to solve streamed: queries are ingested one at a time and components solved as they seal, never materializing the whole load (see docs/STREAMING.md)")
		costSpec = fs.String("cost", "uniform:1", "classifier cost model for -stream: uniform:C or synthetic:SEED")
		sealWin  = fs.Int64("seal-window", 0, "with -stream: seal a component after this many queries without growth and solve it while ingestion continues (0 = seal only at end of stream)")
		ambient  = fs.Int("ambient", 0, "with -stream: declared max query length of the whole load (0 = derive, assuming a long load when -seal-window is set)")
		reopen   = fs.Bool("allow-reopen", false, "with -stream: accept queries whose properties reappear after sealing (upper-bound cover instead of an error)")
		algo     = fs.String("algo", "auto", "algorithm: auto|ktwo|general|short-first|exact|mixed|property-oriented|query-oriented|local-greedy")
		wsc      = fs.String("wsc", "auto", "Algorithm 3 set-cover engine: auto|greedy|primal-dual|lp-rounding|auto-lp")
		prepStr  = fs.String("prep", "full", "preprocessing level: full|minimal")
		engine   = fs.String("engine", "dinic", "Algorithm 2 max-flow engine: dinic|push-relabel")
		parallel = fs.Int("parallel", 0, "components solved concurrently (0/1 serial, -1 = GOMAXPROCS)")
		quiet    = fs.Bool("quiet", false, "print only the total cost")
		asJSON   = fs.Bool("json", false, "emit the solution as JSON")
		analyze  = fs.Bool("analyze", false, "print instance analysis and preprocessing report instead of solving")
		budget   = fs.Float64("budget", -1, "solve the budgeted partial-cover variant with this construction budget (uses the file's query weights; default full cover)")
		explain  = fs.Bool("explain", false, "print, per query, the classifiers assigned to answer it")
		timeout  = fs.Duration("timeout", 0, "abort the solve after this wall time (e.g. 500ms, 2s; 0 = no limit)")
		stats    = fs.Bool("stats", false, "print solve statistics (phase timings, components, engine choices)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inPath == "" && *streamIn == "" {
		return errors.New("-in or -stream is required")
	}
	if *inPath != "" && *streamIn != "" {
		return errors.New("-in and -stream are mutually exclusive")
	}
	mode, reads := "solve", []string{"in", "algo", "wsc", "prep", "engine", "parallel", "quiet", "json", "explain", "timeout", "stats"}
	switch {
	case *streamIn != "":
		mode, reads = "-stream", []string{"stream", "cost", "seal-window", "ambient", "allow-reopen", "wsc", "prep", "engine", "parallel", "quiet", "timeout", "stats"}
	case *analyze:
		mode, reads = "-analyze", []string{"in", "analyze"}
	case *budget >= 0:
		mode, reads = "-budget", []string{"in", "budget"}
	}
	// -quiet and -json print the solution alone, so each refuses the flags
	// that add to the text output, and the other.
	for _, format := range []struct {
		name string
		on   bool
	}{{"quiet", *quiet}, {"json", *asJSON}} {
		if format.on && slices.Contains(reads, format.name) {
			mode += " -" + format.name
			reads = slices.DeleteFunc(reads, func(f string) bool {
				return f != format.name && (f == "stats" || f == "explain" || f == "json" || f == "quiet")
			})
			break
		}
	}
	if err := rejectUnread(fs, mode, append(reads, obsFlags...)); err != nil {
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
		fmt.Fprintf(os.Stderr, "mc3solve: debug server on http://%s\n", obsCLI.DebugAddr)
	}

	opts, err := solver.ParseOptions(*wsc, *prepStr, *engine)
	if err != nil {
		return err
	}
	opts.Parallelism = *parallel
	opts.Validate = true
	opts.Timeout = *timeout
	opts.Tracer = obsCLI.Tracer
	var solveStats *solver.SolveStats
	if *stats {
		solveStats = new(solver.SolveStats)
		opts.Stats = solveStats
	}

	if *streamIn != "" {
		return solveStreamed(out, *streamIn, *costSpec, solver.StreamConfig{
			SealWindow:      *sealWin,
			AmbientQueryLen: *ambient,
			AllowReopen:     *reopen,
			Parallelism:     *parallel,
		}, opts, *quiet, solveStats)
	}

	f, err := os.Open(*inPath)
	if err != nil {
		return err
	}
	file, err := textio.Read(f)
	f.Close()
	if err != nil {
		return err
	}
	_, inst, err := file.Build(core.Options{})
	if err != nil {
		return err
	}

	if *analyze {
		return analyzeInstance(out, inst)
	}
	if *budget >= 0 {
		return solveBudgeted(out, file, inst, *budget, opts)
	}

	fn, err := pickAlgorithm(*algo, inst)
	if err != nil {
		return err
	}

	start := time.Now()
	sol, err := fn(inst, opts)
	elapsed := time.Since(start)
	if err != nil {
		if solveStats != nil {
			fmt.Fprint(out, solveStats)
		}
		return err
	}

	if *quiet {
		fmt.Fprintln(out, sol.Cost)
		return nil
	}
	if *asJSON {
		return writeJSONSolution(out, inst, sol, elapsed)
	}
	fmt.Fprintf(out, "instance: %d queries, %d classifiers, max query length %d\n",
		inst.NumQueries(), inst.NumClassifiers(), inst.MaxQueryLen())
	fmt.Fprintf(out, "algorithm: %s  (prep=%s, wsc=%s, engine=%s)\n", *algo, *prepStr, *wsc, *engine)
	fmt.Fprintf(out, "total construction cost: %g\n", sol.Cost)
	fmt.Fprintf(out, "classifiers selected: %d\n", len(sol.Selected))
	fmt.Fprintf(out, "time: %v\n", elapsed)
	for _, names := range textio.SolutionNames(inst, sol) {
		fmt.Fprintf(out, "  %v\n", names)
	}
	if *explain {
		ex, err := solver.Explain(inst, sol)
		if err != nil {
			return err
		}
		fmt.Fprintln(out)
		ex.Render(out, inst)
	}
	if solveStats != nil {
		fmt.Fprintln(out)
		fmt.Fprintln(out, "solve stats:")
		solveStats.Render(out)
	}
	return nil
}

// rejectUnread fails when a flag set on the command line is not among
// reads, the flags the selected mode reads, naming the flags and the mode.
func rejectUnread(fs *flag.FlagSet, mode string, reads []string) error {
	var unread []string
	fs.Visit(func(f *flag.Flag) {
		if !slices.Contains(reads, f.Name) {
			unread = append(unread, "-"+f.Name)
		}
	})
	if len(unread) > 0 {
		return fmt.Errorf("%s mode ignores %s", mode, strings.Join(unread, ", "))
	}
	return nil
}

// solveStreamed solves a plain-text query log through the streaming path:
// the load is never materialized as an Instance — queries feed a
// core.StreamingBuilder and components are solved as they seal. Progress
// goes to stderr every million queries.
func solveStreamed(out io.Writer, logPath, costSpec string, cfg solver.StreamConfig, opts solver.Options, quiet bool, solveStats *solver.SolveStats) error {
	cm, err := workload.ParseCostModel(costSpec)
	if err != nil {
		return err
	}
	f, err := os.Open(logPath)
	if err != nil {
		return err
	}
	defer f.Close()

	u := core.NewUniverse()
	cfg.Progress = func(st core.StreamStats) {
		fmt.Fprintf(os.Stderr, "mc3solve: streamed %d queries (%d live, %d component(s) sealed)\n",
			st.Added, st.LiveQueries, st.SealedComponents)
	}
	start := time.Now()
	res, err := solver.SolveStream(u, cm, func(add func(core.PropSet) error) error {
		return workload.ParseQueryLogFunc(f, u, add)
	}, cfg, opts)
	elapsed := time.Since(start)
	if err != nil {
		if solveStats != nil {
			fmt.Fprint(out, solveStats)
		}
		return err
	}

	if quiet {
		fmt.Fprintln(out, res.Cost)
		return nil
	}
	fmt.Fprintf(out, "stream: %d queries (%d distinct), %d component(s), max query length %d\n",
		res.Queries, res.Distinct, res.Components, res.MaxQueryLen)
	fmt.Fprintf(out, "peak live queries: %d\n", res.PeakLiveQueries)
	fmt.Fprintf(out, "total construction cost: %g\n", res.Cost)
	fmt.Fprintf(out, "classifiers selected: %d\n", len(res.Classifiers))
	fmt.Fprintf(out, "time: %v\n", elapsed)
	if solveStats != nil {
		fmt.Fprintln(out)
		fmt.Fprintln(out, "solve stats:")
		solveStats.Render(out)
	}
	return nil
}

// solveBudgeted runs the partial-cover heuristic under the given budget.
func solveBudgeted(out io.Writer, file *textio.File, inst *core.Instance, budget float64, opts solver.Options) error {
	weights := file.QueryWeights()
	start := time.Now()
	sol, err := solver.Budgeted(inst, weights, budget, opts)
	if err != nil {
		return err
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	covered := 0
	for _, c := range sol.Covered {
		if c {
			covered++
		}
	}
	fmt.Fprintf(out, "budget %g: spent %g on %d classifiers\n", budget, sol.Cost, len(sol.Selected))
	fmt.Fprintf(out, "covered %d/%d queries, weight %g/%g\n", covered, inst.NumQueries(), sol.CoveredWeight, total)
	fmt.Fprintf(out, "time: %v\n", time.Since(start))
	for _, names := range textio.SolutionNames(inst, &core.Solution{Selected: sol.Selected, Cost: sol.Cost}) {
		fmt.Fprintf(out, "  %v\n", names)
	}
	return nil
}

// analyzeInstance prints the Section 5 instance parameters, the query
// length histogram, and Algorithm 1's report.
func analyzeInstance(out io.Writer, inst *core.Instance) error {
	p := core.Analyze(inst)
	fmt.Fprintf(out, "queries: %d   properties: %d   classifiers: %d\n",
		p.NumQueries, p.NumProperties, p.NumClassifiers)
	fmt.Fprintf(out, "max query length k = %d   max classifier length = %d\n",
		p.MaxQueryLen, p.MaxClassifierLen)
	fmt.Fprintf(out, "incidence I = %d   frequency f = %d   degree Δ = %d\n",
		p.Incidence, p.Frequency, p.Degree)
	guarantee := math.Min(
		math.Log(math.Max(float64(p.Incidence), 1))+math.Log(math.Max(float64(p.MaxQueryLen-1), 1))+1,
		math.Pow(2, float64(p.MaxQueryLen-1)),
	)
	if guarantee < 1 {
		guarantee = 1
	}
	fmt.Fprintf(out, "Algorithm 3 guarantee (Theorem 5.3): %.3f × optimal\n", guarantee)

	hist := make([]int, p.MaxQueryLen+1)
	for qi := 0; qi < inst.NumQueries(); qi++ {
		hist[inst.Query(qi).Len()]++
	}
	fmt.Fprintf(out, "length histogram:")
	for l := 1; l < len(hist); l++ {
		fmt.Fprintf(out, "  %d:%d", l, hist[l])
	}
	fmt.Fprintln(out)

	r, err := prep.Run(inst, prep.Full)
	if err != nil {
		return err
	}
	st := r.Stats
	fmt.Fprintf(out, "preprocessing: %d selected (singleton %d, zero-cost %d, forced %d, step4 %d)\n",
		len(r.Selected), st.SingletonSelected, st.ZeroCostSelected, st.Step3Selected, st.Step4Selected)
	fmt.Fprintf(out, "               %d removed (step3 %d, step4 %d)\n",
		st.Step3Removed+st.Step4Removed, st.Step3Removed, st.Step4Removed)
	fmt.Fprintf(out, "               %d/%d queries resolved, %d components\n",
		st.QueriesCovered, inst.NumQueries(), st.Components)
	return nil
}

// jsonSolution is the -json output document.
type jsonSolution struct {
	Cost        float64    `json:"cost"`
	Classifiers [][]string `json:"classifiers"`
	Queries     int        `json:"queries"`
	Seconds     float64    `json:"seconds"`
}

func writeJSONSolution(out io.Writer, inst *core.Instance, sol *core.Solution, elapsed time.Duration) error {
	doc := jsonSolution{
		Cost:        sol.Cost,
		Classifiers: textio.SolutionNames(inst, sol),
		Queries:     inst.NumQueries(),
		Seconds:     elapsed.Seconds(),
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func pickAlgorithm(name string, inst *core.Instance) (solver.Func, error) {
	switch name {
	case "auto":
		// solver.Auto applies the k ≤ 2 gate per instance.
		return solver.Auto, nil
	case "ktwo":
		return solver.KTwo, nil
	case "general":
		return solver.General, nil
	case "short-first":
		return solver.ShortFirst, nil
	case "exact":
		return solver.Exact, nil
	case "mixed":
		return solver.Mixed, nil
	case "property-oriented":
		return solver.PropertyOriented, nil
	case "query-oriented":
		return solver.QueryOriented, nil
	case "local-greedy":
		return solver.LocalGreedy, nil
	default:
		return nil, fmt.Errorf("unknown -algo %q", name)
	}
}
