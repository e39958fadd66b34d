package main

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/maxflow"
	"repro/internal/obs"
	"repro/internal/prep"
	"repro/internal/solver"
)

// layerMetric is one per-layer metric. Times and counts are per op of the
// traced round unless the unit says otherwise. A workload that leaves a
// layer idle reports its times and counts as 0.
type layerMetric struct{ name, unit string }

var layerMetrics = []layerMetric{
	{"textio.decode_ms", "ms"},
	{"textio.bytes", "B"},
	{"core.build_ms", "ms"},
	{"core.classifiers", "count"},
	{"workload.parse_ms", "ms"},
	{"core.stream_ingest_ms", "ms"},
	{"core.stream_peak_live", "count"},
	{"solver.stream_tail_ms", "ms"},
	{"prep.run_ms", "ms"},
	{"prep.forced", "count"},
	{"prep.removed", "count"},
	{"prep.residual_queries", "count"},
	{"solver.residual_ms", "ms"},
	{"solver.components", "count"},
	{"solver.wsc_greedy_kept", "count"},
	{"solver.wsc_primal_dual_kept", "count"},
	{"maxflow.phases", "count"},
	{"maxflow.augments", "count"},
	{"sched.tasks", "count"},
	{"sched.steals", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.lookups", "count"},
	{"cache.evictions", "count"},
	{"incr.apply_ms", "ms"},
	{"incr.dirty_per_batch", "count"},
	{"incr.dirty_ratio", "ratio"},
	{"serve.overhead_ms", "ms"},
	{"serve.solve_share", "ratio"},
	{"serve.encode_ms", "ms"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.unexplained_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// perOpExempt lists the metrics that are not divided by the op count: the
// ratios and the live-query watermark.
var perOpExempt = map[string]bool{
	"core.stream_peak_live": true,
	"cache.hit_ratio":       true,
	"incr.dirty_ratio":      true,
	"serve.solve_share":     true,
}

// probe instruments the traced round from the benchmark's side: spans
// around each layer call, a sink on the program's own span events (the ones
// SolveStats is built from), and a metrics registry for its mc3_sched_*
// counters. totals collects the per-layer metrics as round totals.
type probe struct {
	log    *spanLog
	sink   *programSink
	reg    *obs.Registry
	tracer *obs.Tracer
	totals map[string]float64
	gc0    gcSnap
	sched0 [2]int64
}

func newProbe() *probe {
	p := &probe{log: newSpanLog(), sink: newProgramSink(), reg: obs.NewRegistry(), totals: map[string]float64{}}
	p.tracer = obs.New(p.sink).WithMetrics(p.reg)
	return p
}

// The methods below are no-ops on a nil probe, so one code path serves the
// untraced and the traced run.

// begin marks the start of the traced round: what the program reported
// before (a replay's session loads, say) is not part of it.
func (p *probe) begin() {
	if p == nil {
		return
	}
	p.sink.reset()
	p.sched0 = [2]int64{p.reg.Counter("mc3_sched_tasks_total").Value(), p.reg.Counter("mc3_sched_steals_total").Value()}
	p.gc0 = readGC()
}

// timeSpan runs f inside a span named name under parent, adds its duration
// to the total of metric (when not ""), and returns f's error.
func (p *probe) timeSpan(parent int, name, metric string, f func() error) error {
	if p == nil {
		return f()
	}
	id := p.log.open(parent, name)
	err := f()
	p.log.close(id)
	if metric != "" {
		p.totals[metric] += p.log.recs[id-1].DurMS
	}
	return err
}

// solveSpan runs a call that solves inside a span named name under parent,
// and records the preprocessing and residual time the program reported
// during it as the span's children (concurrent when the solves ran beside
// the serial path). It returns the span's ID.
func (p *probe) solveSpan(parent int, name string, concurrent bool, f func()) int {
	if p == nil {
		f()
		return 0
	}
	prep0, res0 := p.sink.times()
	id := p.log.open(parent, name)
	f()
	p.log.close(id)
	p.solveChildren(id, prep0, res0, concurrent)
	return id
}

// solveChildren records the preprocessing and residual time reported since
// the sink read prep0 and res0 as children of parent.
func (p *probe) solveChildren(parent int, prep0, res0 time.Duration, concurrent bool) {
	prep1, res1 := p.sink.times()
	p.log.addAggregate(parent, "prep.Run", prep1-prep0, concurrent)
	p.log.addAggregate(parent, "solver.residual", res1-res0, concurrent)
}

// beginOp opens an op's root span (0 on a nil probe); endOp closes it.
func (p *probe) beginOp() int {
	if p == nil {
		return 0
	}
	return p.log.beginOp()
}

func (p *probe) endOp(id int) {
	if p != nil {
		p.log.close(id)
	}
}

// addTotal adds v to a round total.
func (p *probe) addTotal(name string, v float64) {
	if p != nil {
		p.totals[name] += v
	}
}

// traceOpts attaches the probe's tracer to opts.
func (p *probe) traceOpts(opts solver.Options) solver.Options {
	if p != nil {
		opts.Tracer = p.tracer
	}
	return opts
}

// programSink folds the program's own span events into per-layer totals,
// the way solver.SolveStats does: preprocessing time and stats from "prep"
// spans, residual time as each "solve" span minus its preprocessing, kept
// engines from "wsc", max-flow work from "maxflow", and residual queries and
// cache outcomes from "component" spans. (SolveStats itself cannot be used
// under incr, whose Apply span hides the per-solve stats sink.)
type programSink struct {
	mu      sync.Mutex
	prepDur map[uint64]time.Duration
	prep    time.Duration
	resid   time.Duration
	counts  map[string]float64
}

func newProgramSink() *programSink {
	return &programSink{prepDur: map[uint64]time.Duration{}, counts: map[string]float64{}}
}

func (s *programSink) Span(ev obs.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.counts
	switch ev.Name {
	case solver.SpanSolve:
		if d, ok := s.prepDur[ev.ID]; ok {
			delete(s.prepDur, ev.ID)
			if r := ev.Duration - d; r > 0 {
				s.resid += r
			}
		}
	case prep.SpanPrep:
		s.prepDur[ev.Parent] += ev.Duration
		s.prep += ev.Duration
		if v, ok := ev.Value("stats"); ok {
			if ps, ok := v.(prep.Stats); ok {
				c["prep.forced"] += float64(ps.SingletonSelected + ps.ZeroCostSelected + ps.Step3Selected + ps.Step4Selected)
				c["prep.removed"] += float64(ps.Step3Removed + ps.Step4Removed)
			}
		}
		c["solver.components"] += float64(ev.Int("components"))
	case solver.SpanWSC:
		switch ev.Str("engine") {
		case "greedy":
			c["solver.wsc_greedy_kept"]++
		case "primal-dual":
			c["solver.wsc_primal_dual_kept"]++
		}
	case maxflow.SpanRun:
		c["maxflow.phases"] += float64(ev.Int("phases"))
		c["maxflow.augments"] += float64(ev.Int("augments"))
	case solver.SpanComponent:
		c["prep.residual_queries"] += float64(ev.Int("queries"))
		switch ev.Str("cache") {
		case "hit":
			c["cache.hits"]++
		case "miss":
			c["cache.misses"]++
		}
	}
}

func (s *programSink) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.prepDur = map[uint64]time.Duration{}
	s.prep, s.resid = 0, 0
	s.counts = map[string]float64{}
}

// times returns the preprocessing and residual time reported so far.
func (s *programSink) times() (prep, resid time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prep, s.resid
}

// gcSnap is a snapshot of the runtime's GC counters.
type gcSnap struct {
	cycles  uint32
	pauseNS uint64
}

func readGC() gcSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcSnap{m.NumGC, m.PauseTotalNs}
}

// traceReport is a traced run's output.
type traceReport struct {
	log     *spanLog
	table   *layerTable
	metrics map[string]metric // the per-layer metrics, all of which the result line carries
	note    string
}

// report turns the probe's totals into the per-layer metrics of a round of
// ops ops, traced from p.begin. untraced is the wall of the same round run
// without spans.
func (p *probe) report(ops int, traced, untraced time.Duration) *traceReport {
	gc0, gc1 := p.gc0, readGC()
	t := p.totals
	t["runtime.gc_cycles_per_op"] += float64(gc1.cycles - gc0.cycles)
	t["runtime.gc_pause_ms"] += float64(gc1.pauseNS-gc0.pauseNS) / 1e6
	p.sink.mu.Lock()
	t["prep.run_ms"] += float64(p.sink.prep) / 1e6
	t["solver.residual_ms"] += float64(p.sink.resid) / 1e6
	for name, v := range p.sink.counts {
		t[name] += v
	}
	p.sink.mu.Unlock()
	// Cache and scheduler work come from the server's /stats where there is
	// a server (set before report), else from the program's own events.
	if _, ok := t["cache.lookups"]; !ok {
		t["cache.lookups"] = t["cache.hits"] + t["cache.misses"]
		if t["cache.lookups"] > 0 {
			t["cache.hit_ratio"] = t["cache.hits"] / t["cache.lookups"]
		}
	}
	if _, ok := t["sched.tasks"]; !ok {
		t["sched.tasks"] = float64(p.reg.Counter("mc3_sched_tasks_total").Value() - p.sched0[0])
		t["sched.steals"] = float64(p.reg.Counter("mc3_sched_steals_total").Value() - p.sched0[1])
	}
	tab := p.log.table(float64(traced)/1e6, float64(untraced)/1e6)
	t["trace.unexplained_ms"] = tab.Unexplained
	t["trace.overhead_ms"] = tab.overheadMS()

	metrics := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		v := t[lm.name]
		unit := lm.unit
		if !perOpExempt[lm.name] {
			v /= float64(ops)
			unit += "/op"
		}
		metrics[lm.name] = metric{v, unit}
	}
	return &traceReport{log: p.log, table: tab, metrics: metrics}
}
