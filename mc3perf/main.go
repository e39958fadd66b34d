// Command mc3perf is the repository's layered benchmark. One command runs a
// seeded workload against the program's public entry points, checks every
// answer, and prints the end-to-end metrics by name and unit; a separate
// traced run (-trace 1) times the calls into each layer from this package's
// own code and prints the per-layer metrics, a layer table with self times,
// the unexplained remainder and the tracing overhead.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash mc3perf/run.sh --workload offline-private --seed 1 --seconds 10 --trace 0 [--out results.jsonl]
//	bash mc3perf/run.sh compare [--bench BENCHMARK.json] old.jsonl new.jsonl
//
// Every input is generated from --seed before anything is timed, and every
// run does a fixed, seeded first round of ops (so `cost` is deterministic)
// and then keeps cycling through its op sequence until --seconds have
// passed. Load comes from this one process: the serve workloads run
// min(nproc, 2) closed-loop client goroutines over keep-alive connections.
//
// # Workloads
//
// offline-private is the mc3solve path. The full simulated Private load
// (10k queries, k ≤ 6, hundreds of residual components) is held as the
// instance-JSON bytes mc3gen writes, then decoded, built and solved one
// solve at a time with mc3solve's defaults (auto, full prep, serial, no
// cache, validated). Chosen because JSON decode and C_Q enumeration dominate
// it and Algorithm 3 runs cold on every component. Op = one solve. Idle:
// cache, incr, serve, max-flow (no component has k ≤ 2 at full-load gate),
// the streaming builder.
//
// offline-stream is the mc3solve -stream path. A synthetic query log of
// 160k queries in 64 property-disjoint partitions is held as text and parsed
// by workload.ParseQueryLogFunc into solver.SolveStream with a one-partition
// seal window and synthetic:SEED costs. Chosen as the only user of
// core.StreamingBuilder and the peak-heap story; preprocessing is about half
// its wall and the set-cover solve a sliver, so it is the no-change control
// for solver, cache and serve changes. Each partition draws its own property
// pool size, which sets its cost: with 8 partitions the load's cost moved by
// almost 2x between seeds, with 64 by about a third. Op = one
// input query. Idle: textio, C_Q enumeration through File.Build, cache,
// incr, serve, max-flow.
//
// serve-solve is in-process serve.New(serve.DefaultConfig()) on a loopback
// listener, driven closed-loop with POST /solve. Bodies are pre-encoded from
// a seeded pool of 48 distinct Private random subsets (200–800 queries),
// every third from Private's length ≤ 2 slice (Algorithm 2 and max-flow),
// and requested with Zipf frequencies (exponent 1.0). Each pool rank's size
// and slice, and the request order, are fixed; the seed picks the queries.
// Chosen because HTTP, JSON and per-request C_Q take most of the latency and
// the shared cache answers most components. No traffic log exists to take
// the mix from; the pool size and exponent are set so that the cache's hit
// ratio matches the one the serve probe measured (see solvePool), and the
// traced run reports that ratio and the share of repeated bodies. Holds no
// session state. Op = one request. Idle: incr, the streaming builder.
//
// serve-session runs the same server configuration. Each client POSTs /load
// for its own 5k-query Private session during set-up, then sends a seeded
// sequence of /session/{id}/delta batches of 8 deltas in the mc3gen -deltas
// mix (70% add, 20% remove, 10% re-price). Each session has a server of its
// own, because sessions sharing one server's cache get answers that depend
// on each other's history (see serveSession). Chosen as the write path:
// incremental bookkeeping plus re-solving dirty components, with no instance
// decode per request. Op = one batch. Idle: textio and C_Q enumeration per
// op (both run only in set-up), max-flow, the streaming builder.
//
// # Metrics
//
// The end-to-end metrics are measured with tracing off: throughput_ops_s,
// latency_p50_ms (and latency_p90_ms and latency_p99_ms where at least ten
// samples lie beyond them, printed but not in the result line, since not
// every workload has them), error_rate (printed; the result line carries it
// as attempted and failed), cost, alloc_mb_per_op, peak_heap_mb (the median
// over the run's one-second windows of each window's heap watermark) and
// setup_s (the median of five set-ups). offline-stream's latency is per
// query, timed over blocks of 1000 queries.
//
// cost is the answers' total construction cost over the run's fixed first
// round, divided by the price of the singleton cover of the same queries:
// every property they use bought as a classifier of its own, a feasible
// answer the benchmark prices from the cost model without the solver. For a
// given seed it is exact, and every answer behind it is checked. The
// division takes out what the seed changes most, the size and prices of the
// load: on seeds 101–110 the raw total of offline-stream spread by 15% and
// offline-private's by 1.4%, the ratios by 0.6% and 0.8%. The raw total is
// printed beside it.
//
// # Checks
//
// Every /solve cost must equal a reference solver.Auto solve of the same
// body computed before timing; every session batch's cost must equal a
// shadow incr.Engine fed the identical /load body and batches (built the way
// the /load handler builds its engine); the streamed cost must equal a
// materialized solver.General solve of the same log, computed before timing
// and outside setup_s; every offline solve must equal the reference solve
// of the same bytes. A failed or refused op or a failed check counts in
// `failed`, and error_rate = failed / attempted. The /solve check assumes
// that a cache entry another body stored answers a component at the cost
// this body's own solve would reach; serveSolve says why that holds for its
// pool and how widely it was tried.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 5

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp identifies the machine and settings a result was measured with.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
}

// record is one line of a results file (--out): the stamp plus the result.
type record struct {
	stamp
	result
}

// scenario is one benchmark workload. Its constructor generates every input
// and computes the references its checks compare against; nothing of that
// is timed.
type scenario interface {
	// setup builds the environment up to the first timed op (server start,
	// session loads, warm-up), tearing down any previous one first.
	setup() error
	// run performs the timed ops until deadline, and at least the first
	// round, recording each into t.
	run(deadline time.Time, t *tally) error
	// verify runs the checks that need the timed phase's answers.
	verify(t *tally) error
	// trace performs the traced run: the first round once untraced and
	// once with spans around every layer call.
	trace(t *tally) (*traceReport, error)
	// close tears the environment down and waits for its goroutines.
	close()
}

func newScenario(name string, seed int64) (scenario, error) {
	switch name {
	case "offline-private":
		return newOfflinePrivate(seed)
	case "offline-stream":
		return newOfflineStream(seed)
	case "serve-solve":
		return newServeSolve(seed)
	case "serve-session":
		return newServeSession(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want offline-private, offline-stream, serve-solve or serve-session)", name)
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		if err := compareMain(args[1:], stdout); err != nil {
			fmt.Fprintln(stderr, "mc3perf compare:", err)
			return 1
		}
		return 0
	}
	fs := flag.NewFlagSet("mc3perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "offline-private | offline-stream | serve-solve | serve-session")
		seed    = fs.Int64("seed", 1, "seed every input is generated from")
		seconds = fs.Int("seconds", 10, "how long the timed phase runs (at least the first round completes)")
		traced  = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		outPath = fs.String("out", "", "append the run's stamped result as one JSON line to this file")
		spans   = fs.String("spans", "", "with --trace 1: write the spans here (default .bench_build/spans-WORKLOAD-SEED.jsonl)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *name == "" || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "mc3perf: need --workload, --seconds ≥ 1 and --trace 0|1")
		return 2
	}
	st := stamp{
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *traced,
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	fmt.Fprintf(stdout, "# mc3perf workload=%s seed=%d seconds=%d trace=%d cpu=%q nproc=%d gomaxprocs=%d go=%s\n",
		st.Workload, st.Seed, st.Seconds, st.Trace, st.CPU, st.NumCPU, st.GOMAXPROCS, st.GoVersion)

	spanPath := *spans
	if spanPath == "" {
		spanPath = fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", *name, *seed)
	}
	res, err := measure(stdout, *name, *seed, time.Duration(*seconds)*time.Second, *traced == 1, spanPath)
	if err != nil {
		fmt.Fprintln(stderr, "mc3perf:", err)
		return 1
	}
	if *outPath != "" {
		if err := appendRecord(*outPath, record{st, *res}); err != nil {
			fmt.Fprintln(stderr, "mc3perf:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "mc3perf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// measure runs one workload end to end and returns its result.
func measure(w io.Writer, name string, seed int64, seconds time.Duration, traced bool, spanPath string) (*result, error) {
	start := time.Now()
	wl, err := newScenario(name, seed)
	if err != nil {
		return nil, err
	}
	defer wl.close()
	fmt.Fprintf(w, "inputs and references: %.3f s (not timed)\n", time.Since(start).Seconds())

	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := wl.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	setupS := median(setups)
	fmt.Fprintf(w, "setup: %d reps, median %.4f s %v\n", len(setups), setupS, fmtList(setups, "%.4f"))

	t := new(tally)
	res := &result{Metrics: map[string]metric{}}
	if traced {
		rep, err := wl.trace(t)
		if err != nil {
			return nil, err
		}
		if rep.note != "" {
			fmt.Fprintln(w, rep.note)
		}
		rep.table.render(w)
		if err := rep.log.write(spanPath); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(w, "spans: %d written to %s\n", len(rep.log.recs), spanPath)
		res.Metrics = rep.metrics
		fmt.Fprintln(w, "per-layer metrics:")
		renderMetrics(w, rep.metrics)
	} else {
		e2e, tails, err := timed(wl, seconds, t)
		if err != nil {
			return nil, err
		}
		e2e["setup_s"] = metric{setupS, "s"}
		res.Metrics = e2e
		printE2E(w, t, e2e, tails)
	}
	res.Attempted = t.attempted
	res.Failed = t.failed
	res.Correct = t.failed == 0 && t.attempted > 0
	for _, n := range t.notes {
		fmt.Fprintln(w, "FAILED:", n)
	}
	fmt.Fprintf(w, "checks: %d ops attempted, %d failed, error_rate %.6g\n", t.attempted, t.failed, t.errorRate())
	return res, nil
}

// tailMetrics are the tail latencies: printed where the run has enough
// samples beyond them, and left out of the result line, since not every
// workload has them.
var tailMetrics = []struct {
	name string
	q    float64
}{{"latency_p90_ms", 0.9}, {"latency_p99_ms", 0.99}}

// timed runs the untraced timed phase. It returns the end-to-end metrics of
// the result line except setup_s, and apart from them the tail latencies the
// run has enough samples for.
func timed(wl scenario, seconds time.Duration, t *tally) (e2e, tails map[string]metric, err error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hw := startHeapWindows()
	start := time.Now()
	err = wl.run(start.Add(seconds), t)
	elapsed := time.Since(start)
	peak := hw.stop()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, nil, err
	}
	if err := wl.verify(t); err != nil {
		return nil, nil, err
	}
	if t.attempted == 0 {
		return nil, nil, errors.New("no op completed")
	}
	sorted := sortedCopy(t.lat)
	ops := float64(t.attempted)
	cost := 0.0 // when no first-round op succeeded
	if t.base > 0 {
		cost = t.cost / t.base
	}
	e2e = map[string]metric{
		"throughput_ops_s": {float64(t.attempted-t.failed) / elapsed.Seconds(), "1/s"},
		"latency_p50_ms":   {percentile(sorted, 0.5), "ms"},
		"cost":             {cost, "ratio"},
		"alloc_mb_per_op":  {float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / ops, "MB"},
		"peak_heap_mb":     {peak / (1 << 20), "MB"},
	}
	tails = map[string]metric{}
	for _, p := range tailMetrics {
		if tailDefined(len(sorted), p.q) {
			tails[p.name] = metric{percentile(sorted, p.q), "ms"}
		}
	}
	return e2e, tails, nil
}

// heapWindow is the span of one heap watermark. The run's peak_heap_mb is
// the median of its windows' peaks: the highest heap of a whole run is a
// single sample, set by where a collection happened to fall, and it moves
// from run to run far more than the heap the workload holds.
const heapWindow = time.Second

// heapWindows runs obs.StartHeapWatermark in consecutive windows.
type heapWindows struct {
	quit  chan struct{}
	done  chan struct{}
	peaks []float64 // bytes, one per finished window
}

func startHeapWindows() *heapWindows {
	h := &heapWindows{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapWindow)
		defer t.Stop()
		for {
			wm := obs.StartHeapWatermark(10 * time.Millisecond)
			select {
			case <-t.C:
				peak, _ := wm.Stop()
				h.peaks = append(h.peaks, float64(peak))
			case <-h.quit:
				peak, _ := wm.Stop()
				h.peaks = append(h.peaks, float64(peak))
				return
			}
		}
	}()
	return h
}

// stop ends the last window and returns the median window peak in bytes.
func (h *heapWindows) stop() float64 {
	close(h.quit)
	<-h.done
	return median(h.peaks)
}

// printE2E prints every end-to-end metric, including the ones the result
// line leaves out: error_rate (the line carries attempted and failed) and
// the tail percentiles, which exist only where the run has enough samples.
func printE2E(w io.Writer, t *tally, e2e, tails map[string]metric) {
	fmt.Fprintf(w, "end-to-end (%d latency samples; answers' cost %.6g over singleton-cover price %.6g):\n",
		len(t.lat), t.cost, t.base)
	all := map[string]metric{"error_rate": {t.errorRate(), "ratio"}}
	for _, m := range []map[string]metric{e2e, tails} {
		for k, v := range m {
			all[k] = v
		}
	}
	for _, p := range tailMetrics {
		if _, ok := tails[p.name]; !ok {
			fmt.Fprintf(w, "  %-20s n/a (needs %d samples beyond it; %d samples give %d)\n",
				p.name, minBeyond, len(t.lat), max(beyond(len(t.lat), p.q), 0))
		}
	}
	renderMetrics(w, all)
}

func renderMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %18.6f %s\n", n, m[n].Value, m[n].Unit)
	}
}

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// tally accumulates one client's ops. Clients own their tally and are merged
// after they finish.
type tally struct {
	attempted, failed int64
	// lat holds one latency sample per attempted op, in milliseconds; a
	// failed op reads +Inf, so it misses every latency limit.
	lat []float64
	// cost sums the answers' construction cost over the first round, and
	// base the singleton-cover price of the same answers' queries.
	cost, base float64
	notes      []string
}

// maxNotes caps the failure descriptions a run prints.
const maxNotes = 5

// op counts one attempted op that took ms milliseconds and failed when err
// is non-nil.
func (t *tally) op(ms float64, err error) {
	t.attempted++
	if err != nil {
		ms = math.Inf(1)
		t.check(err)
	}
	t.lat = append(t.lat, ms)
}

// check counts a failed output check of an op already counted; nil passes.
func (t *tally) check(err error) {
	if err == nil {
		return
	}
	t.failed++
	if len(t.notes) < maxNotes {
		t.notes = append(t.notes, err.Error())
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.lat = append(t.lat, o.lat...)
	t.cost += o.cost
	t.base += o.base
	for _, n := range o.notes {
		if len(t.notes) < maxNotes {
			t.notes = append(t.notes, n)
		}
	}
}

func (t *tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// cpuModel reads the processor name for the report stamp.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
