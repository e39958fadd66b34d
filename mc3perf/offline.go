package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/solver"
	"repro/internal/textio"
	"repro/internal/workload"
)

// mc3solveOptions are mc3solve's defaults: auto algorithm, full
// preprocessing, greedy + primal-dual, Dinic, serial, validated, no cache.
func mc3solveOptions() solver.Options {
	opts := solver.DefaultOptions()
	opts.Validate = true
	return opts
}

// offlinePrivate is the offline-private workload: decode, build and solve
// the full Private load from its instance-JSON bytes, one solve at a time.
type offlinePrivate struct {
	body []byte
	opts solver.Options
	want float64
	base float64 // the load's singleton-cover price
}

// privateTraceOps is the traced round of offline-private.
const privateTraceOps = 6

func newOfflinePrivate(seed int64) (*offlinePrivate, error) {
	d := workload.Private(seed)
	inst, err := d.Instance()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := textio.Write(&buf, textio.FromInstance(inst)); err != nil {
		return nil, err
	}
	w := &offlinePrivate{body: buf.Bytes(), opts: mc3solveOptions(), base: singletonCover(inst.Queries(), d.Costs)}
	// The reference solves the same bytes before timing. (An in-memory
	// solve of the generated instance is no reference: greedy tie-breaks
	// follow property interning order, which the JSON round trip changes.)
	want, err := w.solve(nil)
	if err != nil {
		return nil, fmt.Errorf("reference solve: %w", err)
	}
	w.want = want
	return w, nil
}

// solve is one op; p is nil outside the traced round.
func (w *offlinePrivate) solve(p *probe) (float64, error) {
	root := p.beginOp()
	defer p.endOp(root)
	inst, err := decodeBuild(w.body, p, root)
	if err != nil {
		return 0, err
	}
	opts := p.traceOpts(w.opts)
	var sol *core.Solution
	p.solveSpan(root, "solver.Auto", false, func() { sol, err = solver.Auto(inst, opts) })
	if err != nil {
		return 0, err
	}
	return sol.Cost, nil
}

// decodeBuild decodes an instance body and builds it (C_Q enumeration), as
// mc3solve -in and the /solve handler do.
func decodeBuild(body []byte, p *probe, root int) (*core.Instance, error) {
	var (
		file *textio.File
		inst *core.Instance
	)
	err := p.timeSpan(root, "textio.Read", "textio.decode_ms", func() (err error) {
		file, err = textio.Read(bytes.NewReader(body))
		return err
	})
	if err != nil {
		return nil, err
	}
	err = p.timeSpan(root, "core.NewInstance(File.Build)", "core.build_ms", func() (err error) {
		_, inst, err = file.Build(core.Options{})
		return err
	})
	if err != nil {
		return nil, err
	}
	p.addTotal("textio.bytes", float64(len(body)))
	p.addTotal("core.classifiers", float64(inst.NumClassifiers()))
	return inst, nil
}

// op runs one timed solve, checks it and returns its cost.
func (w *offlinePrivate) op(t *tally, p *probe) float64 {
	start := time.Now()
	cost, err := w.solve(p)
	t.op(msSince(start), err)
	if err == nil {
		t.check(checkCost("solve", cost, w.want))
	}
	return cost
}

// singletonCover is the price of buying every property the queries use as a
// classifier of its own: a feasible answer, priced from the cost model
// without the solver. The cost metric divides the answers' cost by it.
func singletonCover(queries []core.PropSet, costs core.CostModel) float64 {
	seen := map[core.PropID]bool{}
	total := 0.0
	for _, q := range queries {
		for _, p := range q {
			if !seen[p] {
				seen[p] = true
				total += costs.Cost(core.PropSet{p})
			}
		}
	}
	return total
}

// checkCost compares an answer's cost with its reference.
func checkCost(what string, got, want float64) error {
	if got != want {
		return fmt.Errorf("%s cost %v, reference %v", what, got, want)
	}
	return nil
}

func (w *offlinePrivate) setup() error {
	_, err := w.solve(nil)
	return err
}

func (w *offlinePrivate) run(deadline time.Time, t *tally) error {
	for first := true; first || time.Now().Before(deadline); first = false {
		if cost := w.op(t, nil); first {
			t.cost, t.base = cost, w.base
		}
	}
	return nil
}

func (w *offlinePrivate) verify(*tally) error { return nil }

func (w *offlinePrivate) trace(t *tally) (*traceReport, error) {
	runtime.GC()
	start := time.Now()
	for i := 0; i < privateTraceOps; i++ {
		w.op(t, nil)
	}
	untraced := time.Since(start)
	runtime.GC()
	p := newProbe()
	p.begin()
	start = time.Now()
	for i := 0; i < privateTraceOps; i++ {
		w.op(t, p)
	}
	return p.report(privateTraceOps, time.Since(start), untraced), nil
}

func (w *offlinePrivate) close() {}

// Stream workload shape: streamQueries queries in streamPartitions
// property-disjoint partitions, sealed one partition stretch after their
// last growth. Set-up streams the first streamSetupParts partitions.
const (
	streamQueries    = 160_000
	streamPartitions = 64
	streamSetupParts = 8
	// streamBlock is how many queries one latency sample spans: a single
	// query is admitted in about a microsecond, too close to the clock's
	// resolution to time alone.
	streamBlock = 1000
)

// offlineStream is the offline-stream workload: SolveStream over a query log
// held as text.
type offlineStream struct {
	log      []byte
	setupLen int // bytes of the first streamSetupParts partitions: the set-up log
	costSpec string
	cfg      solver.StreamConfig
	opts     solver.Options
	want     float64
	base     float64 // the log's singleton-cover price
}

func newOfflineStream(seed int64) (*offlineStream, error) {
	var buf bytes.Buffer
	per := int64(streamQueries / streamPartitions)
	var emitted int64
	setupLen := 0
	err := workload.SyntheticStream(streamQueries, seed, streamPartitions, func(props []string) error {
		for i, p := range props {
			if i > 0 {
				buf.WriteByte(',')
			}
			buf.WriteString(p)
		}
		buf.WriteByte('\n')
		if emitted++; emitted == per*streamSetupParts {
			setupLen = buf.Len()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	w := &offlineStream{
		log:      buf.Bytes(),
		setupLen: setupLen,
		costSpec: fmt.Sprintf("synthetic:%d", seed),
		cfg:      solver.StreamConfig{SealWindow: per},
		opts:     mc3solveOptions(),
	}
	// Reference: the materialized whole-load General solve of the same log
	// (the stream-mem differential). Synthetic costs hash interned IDs, so
	// the log is parsed into a fresh universe in the same order.
	cm, err := workload.ParseCostModel(w.costSpec)
	if err != nil {
		return nil, err
	}
	u := core.NewUniverse()
	queries, err := workload.ParseQueryLog(bytes.NewReader(w.log), u)
	if err != nil {
		return nil, err
	}
	inst, err := core.NewInstance(u, queries, cm, core.Options{})
	if err != nil {
		return nil, err
	}
	sol, err := solver.General(inst, w.opts)
	if err != nil {
		return nil, fmt.Errorf("reference solve: %w", err)
	}
	w.want = sol.Cost
	w.base = singletonCover(inst.Queries(), cm)
	return w, nil
}

// solve streams log through SolveStream. Without a probe it appends one
// latency sample per streamBlock queries to lat: the block's time from the
// previous block's last admission to its own last one, per query, i.e. a
// query's parse plus its ingestion (and any backpressure from the
// sealed-component workers).
func (w *offlineStream) solve(log []byte, lat *[]float64, p *probe) (*solver.StreamResult, error) {
	cm, err := workload.ParseCostModel(w.costSpec)
	if err != nil {
		return nil, err
	}
	u := core.NewUniverse()
	opts := w.opts
	if p == nil {
		prev, n := time.Now(), 0
		return solver.SolveStream(u, cm, func(add func(core.PropSet) error) error {
			return workload.ParseQueryLogFunc(bytes.NewReader(log), u, func(q core.PropSet) error {
				err := add(q)
				if n++; lat != nil && n%streamBlock == 0 {
					now := time.Now()
					*lat = append(*lat, float64(now.Sub(prev))/1e6/streamBlock)
					prev = now
				}
				return err
			})
		}, w.cfg, opts)
	}
	root := p.log.beginOp()
	defer p.log.close(root)
	opts = p.traceOpts(opts)
	prep0, res0 := p.sink.times()
	var ingest time.Duration
	var feedEnd time.Time
	res, err := solver.SolveStream(u, cm, func(add func(core.PropSet) error) error {
		id := p.log.open(root, "workload.ParseQueryLogFunc")
		err := workload.ParseQueryLogFunc(bytes.NewReader(log), u, func(q core.PropSet) error {
			t0 := time.Now()
			err := add(q)
			ingest += time.Since(t0)
			return err
		})
		p.log.close(id)
		p.log.addAggregate(id, "core.StreamingBuilder(add)", ingest, false)
		p.totals["workload.parse_ms"] += p.log.recs[id-1].DurMS - float64(ingest)/1e6
		p.totals["core.stream_ingest_ms"] += float64(ingest) / 1e6
		feedEnd = time.Now()
		return err
	}, w.cfg, opts)
	tail := time.Since(feedEnd)
	p.log.addAggregate(root, "solver.SolveStream(tail)", tail, false)
	p.totals["solver.stream_tail_ms"] += float64(tail) / 1e6
	p.solveChildren(root, prep0, res0, true)
	if err == nil {
		p.totals["core.stream_peak_live"] = float64(res.PeakLiveQueries)
	}
	return res, err
}

// pass streams the whole log once, checks the cost and returns it (0 when
// the pass failed).
func (w *offlineStream) pass(t *tally, p *probe) float64 {
	var lat *[]float64
	if p == nil {
		lat = &t.lat
	}
	n := len(t.lat)
	res, err := w.solve(w.log, lat, p)
	t.attempted += streamQueries
	if err != nil {
		// Every query of a failed pass failed.
		t.lat = t.lat[:n]
		t.check(fmt.Errorf("streamed solve: %w", err))
		t.failed += streamQueries - 1
		return 0
	}
	if res.Queries != streamQueries {
		t.check(fmt.Errorf("streamed %d queries, want %d", res.Queries, streamQueries))
	} else {
		t.check(checkCost("streamed", res.Cost, w.want))
	}
	return res.Cost
}

func (w *offlineStream) setup() error {
	_, err := w.solve(w.log[:w.setupLen], nil, nil)
	return err
}

// run streams whole passes, starting another only while it is expected to
// end by the deadline (a pass is seconds long, so stopping at the first pass
// boundary past the deadline would overrun by up to a pass).
func (w *offlineStream) run(deadline time.Time, t *tally) error {
	start := time.Now()
	for passes := 0; ; passes++ {
		if passes > 0 && time.Now().Add(time.Since(start)/time.Duration(passes)).After(deadline) {
			return nil
		}
		if cost := w.pass(t, nil); passes == 0 {
			t.cost, t.base = cost, w.base
		}
	}
}

func (w *offlineStream) verify(*tally) error { return nil }

func (w *offlineStream) trace(t *tally) (*traceReport, error) {
	runtime.GC()
	start := time.Now()
	if _, err := w.solve(w.log, nil, nil); err != nil {
		return nil, err
	}
	untraced := time.Since(start)
	runtime.GC()
	p := newProbe()
	p.begin()
	start = time.Now()
	w.pass(t, p)
	return p.report(streamQueries, time.Since(start), untraced), nil
}

func (w *offlineStream) close() {}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
