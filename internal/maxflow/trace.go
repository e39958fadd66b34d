package maxflow

import (
	"context"

	"repro/internal/obs"
)

// SpanRun is the span name wrapping one max-flow engine run (see
// internal/obs). Attrs: "engine" ("dinic" or "push-relabel") plus this
// run's work counters ("phases", "augments", "discharges", "relabels"). Solvers' stats sinks match it to accumulate
// max-flow work.
const SpanRun = "maxflow"

// startRun opens the engine span when ctx carries a parent span. It returns
// the span (nil when untraced), the Stats the engine body should write into,
// and the caller's Stats to merge into at endRun. When traced, the engine
// counts into a fresh Stats so the span reports this run's work alone even
// if the caller accumulates across runs.
func startRun(ctx context.Context, engine string, st *Stats) (*obs.Span, *Stats, *Stats) {
	sp, _ := obs.StartChild(ctx, SpanRun, obs.Str("engine", engine))
	if sp == nil {
		return nil, st, nil
	}
	return sp, new(Stats), st
}

// endRun closes the engine span, merging the run's counters into the
// caller's stats and attaching them to the span.
func endRun(sp *obs.Span, run, caller *Stats, err error) {
	if sp == nil {
		return
	}
	if caller != nil {
		caller.Add(*run)
	}
	sp.SetAttr(obs.Int("phases", run.Phases), obs.Int("augments", run.Augments),
		obs.Int("discharges", run.Discharges), obs.Int("relabels", run.Relabels))
	sp.EndErr(err)
}
