// Package solver implements the paper's MC³ algorithms on top of the
// substrate packages:
//
//   - Algorithm 2 (Section 4): exact solver for k ≤ 2 via bipartite Weighted
//     Vertex Cover reduced to Max-Flow.
//   - Algorithm 3 (Section 5.2): general solver via reduction to Weighted
//     Set Cover, running the greedy and the f-approximate ("LP-based")
//     algorithm and keeping the cheaper output.
//   - Short-First (Sections 4, 6): Algorithm 2 on the length ≤ 2 slice, then
//     Algorithm 3 on the residual.
//   - The experimental baselines of Section 6.1: Property-Oriented,
//     Query-Oriented, Local-Greedy, and Mixed ([13], uniform costs, k ≤ 2).
//   - An exact branch-and-bound solver used as a test oracle and for
//     approximation-ratio measurements on small instances.
//   - Beyond the paper: a portfolio entry point (Portfolio), certified LP
//     lower bounds (LPLowerBound), the budgeted partial-cover heuristic the
//     paper names as future work (Budgeted), the multi-valued extension
//     (GeneralWithMultiValued), and per-query solution explanations
//     (Explain).
package solver

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bipartite"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prep"
)

// WSCMethod selects the set-cover algorithm(s) inside the general solver.
type WSCMethod int

const (
	// WSCAuto runs both the greedy and the primal-dual algorithm and keeps
	// the cheaper output per component — the paper's Algorithm 3 (with
	// primal-dual standing in for the LP-based f-approximation; identical
	// guarantee, linear time).
	WSCAuto WSCMethod = iota
	// WSCGreedy runs only the Chvátal greedy algorithm.
	WSCGreedy
	// WSCPrimalDual runs only the primal-dual f-approximation.
	WSCPrimalDual
	// WSCLPRounding runs only the simplex LP-relaxation rounding
	// f-approximation. Dense; intended for small/medium instances.
	WSCLPRounding
	// WSCAutoLP runs greedy + LP rounding and keeps the cheaper output.
	WSCAutoLP
)

// String returns the method name.
func (m WSCMethod) String() string {
	switch m {
	case WSCAuto:
		return "greedy+primal-dual"
	case WSCGreedy:
		return "greedy"
	case WSCPrimalDual:
		return "primal-dual"
	case WSCLPRounding:
		return "lp-rounding"
	case WSCAutoLP:
		return "greedy+lp-rounding"
	default:
		return fmt.Sprintf("wsc(%d)", int(m))
	}
}

// Options configure the solvers. Note that the zero value is NOT the
// paper's default configuration: the zero value of Prep is prep.Minimal,
// whereas the paper preprocesses fully. Use DefaultOptions for the paper's
// defaults (full preprocessing, Algorithm 3 = greedy + primal-dual, Dinic
// max-flow).
type Options struct {
	// Prep is the preprocessing level. Its zero value is prep.Minimal;
	// DefaultOptions sets prep.Full (the paper's configuration).
	Prep prep.Level
	// WSC selects Algorithm 3's set-cover engine(s).
	WSC WSCMethod
	// Engine selects the max-flow algorithm inside Algorithm 2.
	Engine bipartite.Engine
	// Parallelism bounds the number of residual components solved
	// concurrently (the paper's Section 3 notes the component
	// decomposition enables exactly this). 0 or 1 solves serially; a
	// negative value uses GOMAXPROCS. Results are deterministic regardless.
	Parallelism int
	// Validate, when set, verifies every produced solution against the
	// instance before returning it.
	Validate bool
	// Context, when non-nil, cancels a solve in flight: every solver
	// inserts low-overhead checkpoints in its hot loops (branch-and-bound
	// nodes, greedy selections, simplex pivots, max-flow phases,
	// preprocessing steps, component dispatch) and returns an error
	// satisfying errors.Is(err, ctx.Err()) promptly after the context
	// fires. Nil means no cancellation.
	Context context.Context
	// Timeout, when positive, bounds the solve's wall time: it is applied
	// once at the top-level entry point (derived from Context, or from
	// context.Background() when Context is nil) and shared by every
	// internal phase and sub-solve, so nested solvers such as ShortFirst
	// and Portfolio observe a single deadline rather than restarting it
	// per phase.
	Timeout time.Duration
	// Stats, when non-nil, accumulates observability data about the solve
	// (per-phase wall times, preprocessing stats, component counts, engine
	// choices, cancellation reason). Fields accumulate across solves so a
	// single struct can tally a whole run; call Reset between solves for
	// per-solve numbers. Safe for concurrent use.
	//
	// Stats is populated from the same trace events a Tracer observes (a
	// stats-collecting sink is attached internally), so the two views can
	// never disagree.
	Stats *SolveStats
	// AmbientQueryLen, when positive, tells the solver the instance is a
	// property-disjoint component of a larger load whose maximal query
	// length is this value. Preprocessing then gates the paper's k = 2
	// Step 4 on the ambient length instead of the instance's own, so the
	// component solves exactly as it would inside the whole load. Zero (the
	// default) means the instance is the whole load. Honored by General and
	// KTwo; used by internal/incr for delta-driven per-component re-solves.
	AmbientQueryLen int
	// Cache, when non-nil, memoizes residual-component solutions across
	// solves: components whose canonical signature (query bitmasks,
	// classifier structure, effective costs) matches a previously solved
	// component are answered from the cache instead of re-running the
	// set-cover or max-flow machinery. Every component is solved in the
	// canonical order its signature encodes, cached or not, so a hit returns
	// exactly what a fresh solve would. Safe to share between concurrent
	// solves; nil (the default) disables memoization. The algorithm domain
	// (general/k≤2, WSC method, max-flow engine) is part of every key, so
	// one cache serves mixed configurations soundly.
	Cache *cache.Cache
	// Tracer, when non-nil and enabled (it has at least one sink or a
	// metrics registry), receives hierarchical spans covering the whole
	// solve: preprocessing steps, per-component dispatch, every set-cover
	// engine run, simplex solves, max-flow runs, and branch-and-bound. It
	// is resolved once at the top-level entry (the same pattern as
	// Context/Timeout), so nested solvers chain onto one trace. A nil or
	// disabled tracer costs nothing on the hot path.
	Tracer *obs.Tracer
}

// DefaultOptions returns the paper's default configuration: full
// preprocessing, Algorithm 3 = greedy + primal-dual, Dinic max-flow, serial
// component solving, no validation, no deadline.
func DefaultOptions() Options {
	return Options{Prep: prep.Full, WSC: WSCAuto, Engine: bipartite.Dinic, Validate: false}
}

// ParseOptions returns DefaultOptions with the set-cover engine, the
// preprocessing level, and the max-flow engine named in the vocabulary the
// CLIs' -wsc, -prep, and -engine flags and the serve configuration share:
// wsc is auto|greedy|primal-dual|lp-rounding|auto-lp, prepLevel is
// full|minimal, engine is dinic|push-relabel.
func ParseOptions(wsc, prepLevel, engine string) (Options, error) {
	opts := DefaultOptions()
	switch wsc {
	case "auto":
		opts.WSC = WSCAuto
	case "greedy":
		opts.WSC = WSCGreedy
	case "primal-dual":
		opts.WSC = WSCPrimalDual
	case "lp-rounding":
		opts.WSC = WSCLPRounding
	case "auto-lp":
		opts.WSC = WSCAutoLP
	default:
		return opts, fmt.Errorf("unknown -wsc %q", wsc)
	}
	switch prepLevel {
	case "full":
		opts.Prep = prep.Full
	case "minimal":
		opts.Prep = prep.Minimal
	default:
		return opts, fmt.Errorf("unknown -prep %q", prepLevel)
	}
	switch engine {
	case "dinic":
		opts.Engine = bipartite.Dinic
	case "push-relabel":
		opts.Engine = bipartite.PushRelabel
	default:
		return opts, fmt.Errorf("unknown -engine %q", engine)
	}
	return opts, nil
}

// Auto dispatches an instance to the paper-appropriate solver: the exact
// KTwo solver when every query has length ≤ 2, General otherwise — the gate
// behind every CLI's "auto" algorithm.
func Auto(inst *core.Instance, opts Options) (*core.Solution, error) {
	if inst.MaxQueryLen() > 2 {
		return General(inst, opts)
	}
	return KTwo(inst, opts)
}

// solveContext resolves Context and Timeout into the single context that
// governs a whole solve. It returns the context, a cancel function the
// caller must defer, and an Options copy whose Context carries the deadline
// and whose Timeout is zeroed — sub-solves receiving the copy share the
// deadline instead of re-applying the timeout.
func (o Options) solveContext() (context.Context, context.CancelFunc, Options) {
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	cancel := context.CancelFunc(func() {})
	if o.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, o.Timeout)
		o.Timeout = 0
	}
	o.Context = ctx
	return ctx, cancel, o
}

// Func is the uniform signature all solvers expose.
type Func func(inst *core.Instance, opts Options) (*core.Solution, error)

// assemble builds the final solution from preprocessing selections plus
// solver picks, recomputing the cost from original classifier costs.
func assemble(inst *core.Instance, r *prep.Result, picks []core.ClassifierID, opts Options) (*core.Solution, error) {
	all := make([]core.ClassifierID, 0, len(r.Selected)+len(picks))
	all = append(all, r.Selected...)
	all = append(all, picks...)
	sol := core.NewSolution(inst, all)
	if opts.Validate {
		if err := inst.Verify(sol); err != nil {
			return nil, fmt.Errorf("solver: produced invalid solution: %w", err)
		}
	}
	return sol, nil
}

// Registry returns the named algorithms of the experimental study
// (Section 6.1), general-case set. Each entry is self-contained; the
// baselines ignore the preprocessing and WSC options.
func Registry() map[string]Func {
	return map[string]Func{
		"mc3-general":       General,
		"short-first":       ShortFirst,
		"property-oriented": PropertyOriented,
		"query-oriented":    QueryOriented,
		"local-greedy":      LocalGreedy,
	}
}

// RegistryShort returns the named algorithms for the k ≤ 2 experiments.
func RegistryShort() map[string]Func {
	return map[string]Func{
		"mc3-short":         KTwo,
		"mixed":             Mixed,
		"property-oriented": PropertyOriented,
		"query-oriented":    QueryOriented,
	}
}
