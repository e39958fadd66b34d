// Package mc3 is a Go implementation of the MC³ problem — Minimization of
// Classifier Construction Cost for Search Queries (Gershtein, Milo, Morami,
// Novgorodov; SIGMOD 2020).
//
// Given a load of conjunctive search queries, each a set of properties, and
// a construction-cost estimate for every binary classifier (a classifier
// tests the conjunction of a subset of some query's properties), the MC³
// problem asks for the cheapest set of classifiers that covers the load: a
// query q is covered when some selected classifiers, each testing a subset
// of q, jointly test exactly q.
//
// The package offers:
//
//   - Instance construction from queries and a cost model (the classifier
//     universe C_Q is enumerated automatically; price classifiers at
//     math.Inf(1) to exclude them).
//   - Solve, which dispatches to the exact polynomial algorithm for loads
//     whose queries have at most two properties (Algorithm 2: bipartite
//     weighted vertex cover via max-flow) and to the approximation
//     algorithm otherwise (Algorithm 3: weighted set cover with the
//     min{ln I + ln(k−1) + 1, 2^{k−1}} guarantee of Theorem 5.3).
//   - The paper's preprocessing procedure (Algorithm 1), the Short-First
//     heuristic, the experimental baselines, and an exact branch-and-bound
//     solver for small instances.
//   - The multi-valued classifier extension (Section 5.3) via
//     MergeAttributes.
//
// Quickstart:
//
//	u := mc3.NewUniverse()
//	queries := []mc3.PropSet{
//		u.Set("team:juventus", "color:white", "brand:adidas"),
//		u.Set("team:chelsea", "brand:adidas"),
//	}
//	costs := mc3.NewCostTable(math.Inf(1))
//	costs.Set(u.Set("brand:adidas", "team:chelsea"), 3)
//	// ... price the remaining classifiers ...
//	inst, err := mc3.NewInstance(u, queries, costs, mc3.InstanceOptions{})
//	sol, err := mc3.Solve(inst, mc3.DefaultSolveOptions())
package mc3

import (
	"io"
	"log/slog"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prep"
	"repro/internal/solver"
)

// Core model types (see package core for full documentation).
type (
	// Universe interns property names.
	Universe = core.Universe
	// PropID is an interned property identifier.
	PropID = core.PropID
	// PropSet is a canonical property set — a query or a classifier.
	PropSet = core.PropSet
	// Instance is a materialized MC³ problem.
	Instance = core.Instance
	// InstanceOptions configure instance construction (bounded classifier
	// length, query-length limits, duplicate handling).
	InstanceOptions = core.Options
	// ClassifierID indexes a classifier within an Instance.
	ClassifierID = core.ClassifierID
	// Solution is a selected classifier set with its total cost.
	Solution = core.Solution
	// CostModel prices classifiers.
	CostModel = core.CostModel
	// CostFunc adapts a function to CostModel.
	CostFunc = core.CostFunc
	// CostTable is a map-backed CostModel.
	CostTable = core.CostTable
	// UniformCost prices every classifier identically.
	UniformCost = core.UniformCost
	// Params are the analysis parameters (incidence, frequency, degree).
	Params = core.Params
)

// Preprocessing types (the paper's Algorithm 1).
type (
	// PrepLevel selects how much of the preprocessing procedure runs.
	PrepLevel = prep.Level
	// PrepResult is the preprocessing outcome layered over an instance.
	PrepResult = prep.Result
	// PrepStats counts per-step preprocessing effects.
	PrepStats = prep.Stats
)

// Preprocessing levels.
const (
	// PrepMinimal performs only mandatory selections and feasibility checks.
	PrepMinimal = prep.Minimal
	// PrepFull runs all four steps of Algorithm 1.
	PrepFull = prep.Full
)

// Solver configuration.
type (
	// SolveOptions configure the solvers. Set Context and/or Timeout to
	// bound a solve (cancellation checkpoints run throughout the stack and
	// return an error satisfying errors.Is(err, context.Canceled) or
	// errors.Is(err, context.DeadlineExceeded)); attach a *SolveStats to
	// collect per-phase observability data.
	SolveOptions = solver.Options
	// WSCMethod selects Algorithm 3's internal set-cover engine(s).
	WSCMethod = solver.WSCMethod
	// SolverFunc is the uniform solver signature.
	SolverFunc = solver.Func
	// SolveStats accumulates solve observability data (per-phase wall
	// times, preprocessing counters, component counts, engine choices,
	// max-flow work, cancellation reason). Attach one via
	// SolveOptions.Stats; call Reset between solves for per-solve numbers.
	SolveStats = solver.SolveStats
)

// Observability types (see docs/OBSERVABILITY.md). Attach a Tracer via
// SolveOptions.Tracer to receive one event per completed span of the solve;
// SolveStats is populated from the same events.
type (
	// Tracer creates spans and fans completion events out to sinks.
	Tracer = obs.Tracer
	// TraceSink consumes completed spans; implementations must be safe for
	// concurrent use.
	TraceSink = obs.Sink
	// TraceEvent is the record of one completed span.
	TraceEvent = obs.Event
	// MetricsRegistry holds counters, gauges, and duration histograms with
	// Prometheus text and expvar exposition.
	MetricsRegistry = obs.Registry
)

// NewTracer returns a Tracer emitting to the given sinks. Extend it with
// Tracer.WithSink / Tracer.WithMetrics; a tracer with no sinks and no
// registry is disabled at zero cost.
func NewTracer(sinks ...TraceSink) *Tracer { return obs.New(sinks...) }

// NewJSONLTraceSink returns a sink writing one JSON object per completed
// span to w.
func NewJSONLTraceSink(w io.Writer) TraceSink { return obs.NewJSONLSink(w) }

// NewSlogTraceSink returns a sink logging completed spans through l
// (slog.Default() when nil).
func NewSlogTraceSink(l *slog.Logger) TraceSink { return obs.NewSlogSink(l) }

// NewMetricsRegistry returns an empty metrics registry; attach it with
// Tracer.WithMetrics to record per-span counters and duration histograms.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// Component-solution caching (see internal/cache and docs/SERVING.md).
// Attach a Cache via SolveOptions.Cache to memoize residual-component
// solutions across solves: repeated components — the common case when the
// same query log, or structurally overlapping logs, are solved again and
// again by a long-lived process — are answered from the cache in
// O(signature) instead of re-running the set-cover or max-flow machinery.
type (
	// Cache is a concurrency-safe, bounded LRU memoization of component
	// solutions, keyed by a canonical (renaming-invariant) signature.
	Cache = cache.Cache
	// CacheConfig configures a Cache (entry bound, optional metrics
	// registry).
	CacheConfig = cache.Config
	// CacheStats is a snapshot of a Cache's hit/miss/eviction counters.
	CacheStats = cache.Stats
)

// NewCache returns an empty component-solution cache. The zero CacheConfig
// is valid: a 4096-entry LRU keyed on exact costs, no metrics.
func NewCache(cfg CacheConfig) *Cache { return cache.New(cfg) }

// Set-cover engine choices for SolveOptions.WSC.
const (
	// WSCAuto runs greedy + primal-dual and keeps the cheaper result
	// (the paper's Algorithm 3).
	WSCAuto = solver.WSCAuto
	// WSCGreedy runs only the Chvátal greedy algorithm.
	WSCGreedy = solver.WSCGreedy
	// WSCPrimalDual runs only the primal-dual f-approximation.
	WSCPrimalDual = solver.WSCPrimalDual
	// WSCLPRounding runs only simplex LP-relaxation rounding.
	WSCLPRounding = solver.WSCLPRounding
	// WSCAutoLP runs greedy + LP rounding and keeps the cheaper result.
	WSCAutoLP = solver.WSCAutoLP
)

// NoClassifier is the invalid ClassifierID.
const NoClassifier = core.NoClassifier

// NewUniverse returns an empty property universe.
func NewUniverse() *Universe { return core.NewUniverse() }

// NewInstance materializes an MC³ instance from a query load and cost model.
func NewInstance(u *Universe, queries []PropSet, cm CostModel, opts InstanceOptions) (*Instance, error) {
	return core.NewInstance(u, queries, cm, opts)
}

// NewPropSet builds a canonical property set from IDs.
func NewPropSet(ids ...PropID) PropSet { return core.NewPropSet(ids...) }

// NewCostTable returns an empty cost table with the given default cost.
func NewCostTable(def float64) *CostTable { return core.NewCostTable(def) }

// Analyze computes the instance parameters used by the paper's
// approximation bounds.
func Analyze(inst *Instance) Params { return core.Analyze(inst) }

// Preprocess runs the paper's Algorithm 1 at the given level.
func Preprocess(inst *Instance, level PrepLevel) (*PrepResult, error) {
	return prep.Run(inst, level)
}

// DefaultSolveOptions returns the paper's default configuration: full
// preprocessing, Algorithm 3 = greedy + primal-dual, Dinic max-flow.
func DefaultSolveOptions() SolveOptions { return solver.DefaultOptions() }

// Solve covers the query load at (approximately) minimal cost: it runs the
// exact polynomial Algorithm 2 when every query has at most two properties,
// and the approximate Algorithm 3 otherwise. Honors opts.Context and
// opts.Timeout, and populates opts.Stats when attached.
func Solve(inst *Instance, opts SolveOptions) (*Solution, error) {
	if inst.MaxQueryLen() <= 2 {
		return solver.KTwo(inst, opts)
	}
	return solver.General(inst, opts)
}

// The individual algorithms, exposed with the paper's names.
var (
	// SolveKTwo is Algorithm 2: exact for query length ≤ 2 (MC³[S]).
	SolveKTwo SolverFunc = solver.KTwo
	// SolveGeneral is Algorithm 3: the general approximation (MC³[G]).
	SolveGeneral SolverFunc = solver.General
	// SolveShortFirst covers length ≤ 2 queries exactly first, then the
	// residual (the "almost k = 2" heuristic).
	SolveShortFirst SolverFunc = solver.ShortFirst
	// SolveExact is the branch-and-bound oracle for small instances.
	SolveExact SolverFunc = solver.Exact
	// PropertyOriented is the all-singletons baseline.
	PropertyOriented SolverFunc = solver.PropertyOriented
	// QueryOriented is the one-classifier-per-query baseline.
	QueryOriented SolverFunc = solver.QueryOriented
	// LocalGreedy is the per-query greedy baseline.
	LocalGreedy SolverFunc = solver.LocalGreedy
	// Mixed is the uniform-cost k ≤ 2 algorithm of [13].
	Mixed SolverFunc = solver.Mixed
)

// SolvePortfolio runs every applicable algorithm (exact Algorithm 2 for
// short loads; otherwise Algorithm 3, Short-First, and Local-Greedy) and
// returns the cheapest valid solution.
var SolvePortfolio SolverFunc = solver.Portfolio
