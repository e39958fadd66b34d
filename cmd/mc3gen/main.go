// Command mc3gen generates the paper's datasets (Section 6.1) as MC³
// instance files consumable by mc3solve.
//
// Usage:
//
//	mc3gen -dataset synthetic -n 10000 -seed 1 -out instance.json
//	mc3gen -dataset bestbuy -out bb.json
//	mc3gen -dataset private [-category fashion] [-short] -out p.json
//	mc3gen -stream -queries 10000000 -partitions 64 -seed 1 -out queries.log
//	mc3gen -log queries.log [-log-cost 1] -out instance.json
//	mc3gen -dataset synthetic -n 200 -deltas -delta-events 500 -out stream.txt
//	mc3gen -dataset synthetic -n 200 -deltas -sessions 4 -out bundle.txt
//
// With -deltas the tool emits a timestamped add/remove/update-cost stream
// (the mc3replay input format, see docs/INCREMENTAL.md) drawn from the
// dataset's queries instead of an instance file. Adding -sessions N emits a
// deterministic multi-session bundle ("# session <name>" markers, see
// internal/incr) — the mc3replay -cluster workload. Each mode (-stream,
// -log, -deltas, or an instance file) fails on a flag it does not read.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/textio"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mc3gen:", err)
		os.Exit(1)
	}
}

// run executes the tool against args; the instance JSON goes to out (or the
// -out file), progress notes to errw.
func run(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("mc3gen", flag.ContinueOnError)
	var (
		dataset  = fs.String("dataset", "synthetic", "dataset: synthetic|synthetic-k2|bestbuy|private")
		logPath  = fs.String("log", "", "ingest a plain-text query log instead of generating (one query per line, comma-separated properties)")
		logCost  = fs.Float64("log-cost", 1, "uniform classifier cost for -log ingestion")
		n        = fs.Int("n", 10000, "query count (synthetic datasets)")
		seed     = fs.Int64("seed", 1, "generation seed")
		category = fs.String("category", "", "restrict private dataset to a category: electronics|fashion|home-garden")
		short    = fs.Bool("short", false, "restrict to queries of length ≤ 2")
		subset   = fs.Int("subset", 0, "randomly subsample to this many queries (0 = all)")
		outPath  = fs.String("out", "", "output file (default stdout)")

		stream     = fs.Bool("stream", false, "emit a plain-text query log (one query per line) via the streaming generator — no instance materialization, scales to 10M+ queries")
		queries    = fs.Int64("queries", 0, "with -stream: query count (0 falls back to -n)")
		partitions = fs.Int("partitions", 16, "with -stream: number of property-disjoint segments (gives the stream locality so a streamed solve can seal mid-stream; 1 = single pool, exactly the synthetic shape)")

		deltas      = fs.Bool("deltas", false, "emit a timestamped delta stream (mc3replay input) instead of an instance")
		deltaEvents = fs.Int("delta-events", 200, "number of events in the -deltas stream")
		deltaRate   = fs.Float64("delta-rate", 10, "events per second of stream time in the -deltas stream")
		sessions    = fs.Int("sessions", 0, "with -deltas: emit a multi-session bundle with this many independent sessions (mc3replay -cluster input)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	mode, reads := "instance", []string{"dataset", "n", "seed", "category", "short", "subset", "out"}
	switch {
	case *stream:
		mode, reads = "-stream", []string{"stream", "dataset", "n", "queries", "partitions", "seed", "out"}
	case *logPath != "":
		mode, reads = "-log", []string{"log", "log-cost", "subset", "seed", "out"}
	case *deltas:
		mode, reads = "-deltas", []string{"deltas", "dataset", "n", "seed", "category", "short", "delta-events", "delta-rate", "sessions", "out"}
	}
	if err := rejectUnread(fs, mode, reads); err != nil {
		return err
	}

	if *stream {
		if *dataset != "synthetic" {
			return fmt.Errorf("-stream supports only -dataset synthetic")
		}
		nq := *queries
		if nq <= 0 {
			nq = int64(*n)
		}
		return emitStream(nq, *seed, *partitions, *outPath, out, errw)
	}

	var d *workload.Dataset
	if *logPath != "" {
		lf, err := os.Open(*logPath)
		if err != nil {
			return err
		}
		d, err = workload.DatasetFromLog("querylog", lf, core.UniformCost(*logCost))
		lf.Close()
		if err != nil {
			return err
		}
		return emit(d, *subset, *seed, *outPath, out, errw)
	}
	switch *dataset {
	case "synthetic":
		d = workload.Synthetic(*n, *seed)
	case "synthetic-k2":
		d = workload.SyntheticShort(*n, *seed)
	case "bestbuy":
		d = workload.BestBuy(*seed)
	case "private":
		d = workload.Private(*seed)
	default:
		return fmt.Errorf("unknown -dataset %q", *dataset)
	}
	if *category != "" {
		if d.Categories == nil {
			return fmt.Errorf("dataset %q has no categories", *dataset)
		}
		d = d.CategorySlice(*category)
		if len(d.Queries) == 0 {
			return fmt.Errorf("unknown -category %q", *category)
		}
	}
	if *short {
		d = d.ShortSlice()
	}

	if *deltas {
		if *sessions > 0 {
			return emitSessionBundle(d, *sessions, *deltaEvents, *deltaRate, *seed, *outPath, out, errw)
		}
		return emitDeltas(d, *deltaEvents, *deltaRate, *seed, *outPath, out, errw)
	}
	return emit(d, *subset, *seed, *outPath, out, errw)
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

// emitStream writes a plain-text query log (the mc3solve -stream /
// ParseQueryLog input format) straight from the streaming synthetic
// generator — queries are never materialized, so 10M+ loads cost only the
// property pool. Deterministic: identical flags yield identical bytes.
func emitStream(n, seed int64, partitions int, outPath string, out, errw io.Writer) error {
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	w := bufio.NewWriterSize(out, 1<<20)
	var emitted int64
	err := workload.SyntheticStream(n, seed, partitions, func(props []string) error {
		for i, p := range props {
			if i > 0 {
				if err := w.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := w.WriteString(p); err != nil {
				return err
			}
		}
		if err := w.WriteByte('\n'); err != nil {
			return err
		}
		emitted++
		if emitted%1_000_000 == 0 {
			fmt.Fprintf(errw, "mc3gen: streamed %dM/%d queries\n", emitted/1_000_000, n)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(errw, "mc3gen: synthetic stream — %d queries, %d partition(s), seed %d\n", emitted, partitions, seed)
	return nil
}

// deltaStats counts a generated stream's event mix.
type deltaStats struct {
	adds, removes, reprices int
}

// emitDeltas writes a deterministic timestamped delta stream drawn from the
// dataset's query pool: mostly adds (walking the pool, then duplicating),
// mixed with removals of live queries and cost re-pricings of their
// sub-classifiers.
func emitDeltas(d *workload.Dataset, events int, rate float64, seed int64, outPath string, out, errw io.Writer) error {
	stream, st, err := genDeltas(d, events, rate, seed)
	if err != nil {
		return err
	}
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := incr.WriteDeltaStream(out, stream); err != nil {
		return err
	}
	fmt.Fprintf(errw, "mc3gen: %s — %d delta events over %.1fs (%d adds, %d removes, %d re-pricings)\n",
		d.Name, len(stream), float64(events-1)/rate, st.adds, st.removes, st.reprices)
	return nil
}

// emitSessionBundle writes a deterministic multi-session bundle: n
// independent delta streams over the same dataset, session i generated with
// seed+i, so the cluster replay harness gets a keyed, replayable workload
// (identical flags → identical bytes; see TestSessionBundleDeterministic).
func emitSessionBundle(d *workload.Dataset, n, events int, rate float64, seed int64, outPath string, out, errw io.Writer) error {
	bundle := make([]incr.SessionStream, 0, n)
	var total deltaStats
	for i := 0; i < n; i++ {
		stream, st, err := genDeltas(d, events, rate, seed+int64(i))
		if err != nil {
			return err
		}
		bundle = append(bundle, incr.SessionStream{Name: fmt.Sprintf("s%d", i+1), Deltas: stream})
		total.adds += st.adds
		total.removes += st.removes
		total.reprices += st.reprices
	}
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := incr.WriteSessionBundle(out, bundle); err != nil {
		return err
	}
	fmt.Fprintf(errw, "mc3gen: %s — %d sessions x %d delta events (%d adds, %d removes, %d re-pricings)\n",
		d.Name, n, events, total.adds, total.removes, total.reprices)
	return nil
}

// genDeltas generates one deterministic delta stream (the body shared by
// emitDeltas and emitSessionBundle).
func genDeltas(d *workload.Dataset, events int, rate float64, seed int64) ([]incr.Delta, deltaStats, error) {
	var st deltaStats
	if events <= 0 {
		return nil, st, fmt.Errorf("-delta-events must be positive, got %d", events)
	}
	if rate <= 0 {
		return nil, st, fmt.Errorf("-delta-rate must be positive, got %v", rate)
	}
	if len(d.Queries) == 0 {
		return nil, st, fmt.Errorf("dataset %q has no queries", d.Name)
	}
	rng := rand.New(rand.NewSource(seed))
	names := func(s core.PropSet) []string { return d.Universe.SetNames(s) }

	var (
		stream []incr.Delta
		live   []core.PropSet
		next   int
	)
	for i := 0; i < events; i++ {
		t := float64(i) / rate
		switch r := rng.Float64(); {
		case r < 0.70 || len(live) == 0:
			q := d.Queries[rng.Intn(len(d.Queries))]
			if next < len(d.Queries) {
				q = d.Queries[next]
				next++
			}
			live = append(live, q)
			stream = append(stream, incr.Delta{Time: t, Op: incr.OpAdd, Props: names(q)})
			st.adds++
		case r < 0.90:
			j := rng.Intn(len(live))
			stream = append(stream, incr.Delta{Time: t, Op: incr.OpRemove, Props: names(live[j])})
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			st.removes++
		default:
			q := live[rng.Intn(len(live))]
			k := rng.Intn(q.Len()) + 1
			sub := make([]string, 0, k)
			for _, j := range rng.Perm(q.Len())[:k] {
				sub = append(sub, d.Universe.Name(q[j]))
			}
			stream = append(stream, incr.Delta{Time: t, Op: incr.OpUpdateCost, Props: sub, Cost: float64(rng.Intn(50) + 1)})
			st.reprices++
		}
	}
	return stream, st, nil
}

// emit materializes the dataset (optionally subsampled) and writes the
// instance file.
func emit(d *workload.Dataset, subset int, seed int64, outPath string, out, errw io.Writer) error {
	inst, err := buildInstance(d, subset, seed)
	if err != nil {
		return err
	}

	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := textio.Write(out, textio.FromInstance(inst)); err != nil {
		return err
	}
	fmt.Fprintf(errw, "mc3gen: %s — %d queries, %d classifiers, max length %d\n",
		d.Name, inst.NumQueries(), inst.NumClassifiers(), inst.MaxQueryLen())
	return nil
}

func buildInstance(d *workload.Dataset, subset int, seed int64) (*core.Instance, error) {
	if subset > 0 {
		return d.SubsetInstance(subset, seed)
	}
	return d.Instance()
}
