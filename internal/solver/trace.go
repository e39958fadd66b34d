package solver

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/maxflow"
	"repro/internal/obs"
	"repro/internal/prep"
)

// Span names emitted by the solver stack. SolveStats is populated by
// matching these (see statsSink), so the trace and the aggregate stats are
// two views of the same events.
const (
	// SpanSolve is a tracked solve phase: General, KTwo, Portfolio, Exact,
	// and the nested phases of composite solvers. Attrs: "algo", and for
	// Portfolio "winner" plus "truncated" ("deadline" | "cancelled") when
	// the deadline cut candidates short after a solution was found; "err"
	// on failure.
	SpanSolve = "solve"
	// SpanComposite wraps a composite solver that delegates all real work
	// to nested SpanSolve phases (ShortFirst). It names the algorithm
	// without counting as a solve phase. Attrs: "algo".
	SpanComposite = "solve.composite"
	// SpanCandidate wraps one Portfolio candidate run. Attrs: "candidate".
	SpanCandidate = "candidate"
	// SpanComponent wraps one residual component's cover computation.
	// Attrs: "index", "queries"; with a component cache attached also
	// "cache" ("hit" | "miss").
	SpanComponent = "component"
	// SpanWSC wraps Algorithm 3's set-cover engine race on one component.
	// Attrs: "engine" (the winner), "cost", "sets", "elements"; when an
	// engine failed but the race survived, "engine_failures".
	SpanWSC = "wsc"
	// SpanWSCRun wraps a single set-cover engine run. Attrs: "engine",
	// "cost", "sets".
	SpanWSCRun = "wsc.run"
)

// resolveTracer returns the tracer governing a solve: the one bound to the
// parent span when this is a nested solve (so the whole solve shares one
// trace and one stats sink), otherwise opts.Tracer extended with a
// stats-collecting sink when opts.Stats is attached.
func resolveTracer(ctx context.Context, opts Options) *obs.Tracer {
	if sp := obs.FromContext(ctx); sp != nil {
		return sp.Tracer()
	}
	tr := opts.Tracer
	if opts.Stats != nil {
		tr = tr.WithSink(newStatsSink(opts.Stats))
	}
	return tr
}

// startSolve opens a solver's root span (child of the caller's span for
// nested solves) and rebinds opts.Context so every layer below sees it.
// name is SpanSolve or SpanComposite; algo is the algorithm label.
func startSolve(ctx context.Context, opts Options, name, algo string) (*obs.Span, context.Context, Options) {
	sp, ctx := obs.StartSpan(ctx, resolveTracer(ctx, opts), name, obs.Str("algo", algo))
	opts.Context = ctx
	return sp, ctx, opts
}

// statsSink accumulates trace events into a SolveStats — the bridge that
// keeps Options.Stats working whether or not the caller attached sinks of
// their own. One sink instance exists per top-level solve entry; concurrent
// solves may share the underlying SolveStats (it locks internally).
type statsSink struct {
	stats *SolveStats

	mu sync.Mutex
	// prepDur records each preprocessing span's duration keyed by its
	// parent solve span, consumed when that solve span ends to split its
	// total into prep + solve time.
	prepDur map[uint64]time.Duration
}

func newStatsSink(stats *SolveStats) *statsSink {
	return &statsSink{stats: stats, prepDur: make(map[uint64]time.Duration)}
}

// Span implements obs.Sink.
func (k *statsSink) Span(ev obs.Event) {
	s := k.stats
	switch ev.Name {
	case SpanSolve:
		k.mu.Lock()
		prepDur, hadPrep := k.prepDur[ev.ID]
		delete(k.prepDur, ev.ID)
		k.mu.Unlock()

		s.mu.Lock()
		s.Algorithm = ev.Str("algo")
		s.Solves++
		s.TotalTime += ev.Duration
		if hadPrep {
			s.PrepTime += prepDur
			if d := ev.Duration - prepDur; d > 0 {
				s.SolveTime += d
			}
		}
		if w := ev.Str("winner"); w != "" {
			s.Winner = w
		}
		switch err := ev.Err("err"); {
		case err == nil:
		case errors.Is(err, context.DeadlineExceeded):
			s.Cancelled = true
			s.CancelReason = "deadline"
		case errors.Is(err, context.Canceled):
			s.Cancelled = true
			s.CancelReason = "cancelled"
		}
		// An anytime solver (Portfolio) that was cut short but still
		// returned a solution reports the truncation as an attr instead of
		// an error; stats record the cancellation either way.
		if reason := ev.Str("truncated"); reason != "" {
			s.Cancelled = true
			s.CancelReason = reason
		}
		s.mu.Unlock()

	case SpanComposite:
		s.mu.Lock()
		s.Algorithm = ev.Str("algo")
		s.mu.Unlock()

	case prep.SpanPrep:
		k.mu.Lock()
		k.prepDur[ev.Parent] += ev.Duration
		k.mu.Unlock()

		s.mu.Lock()
		if v, ok := ev.Value("stats"); ok {
			if ps, ok := v.(prep.Stats); ok {
				addPrepStats(&s.Prep, ps)
			}
		}
		s.Components += int(ev.Int("components"))
		s.mu.Unlock()

	case SpanWSC:
		if engine := ev.Str("engine"); engine != "" {
			s.mu.Lock()
			s.WSCEngine = append(s.WSCEngine, engine)
			s.mu.Unlock()
		}

	case maxflow.SpanRun:
		s.mu.Lock()
		s.MaxFlow.Add(maxflow.Stats{
			Phases:     int(ev.Int("phases")),
			Augments:   int(ev.Int("augments")),
			Discharges: int(ev.Int("discharges")),
			Relabels:   int(ev.Int("relabels")),
		})
		s.mu.Unlock()
	}
}
