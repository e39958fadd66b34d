package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prep"
	"repro/internal/setcover"
)

// MultiValued describes a multi-valued classifier (Section 5.3): one model
// that determines which value of an attribute an item has, and therefore
// acts as a binary classifier for every listed property simultaneously —
// e.g. a "color" classifier deciding {color:red, color:blue, …}.
type MultiValued struct {
	// Name labels the classifier (e.g. the attribute name).
	Name string
	// Properties are the binary properties this classifier decides.
	Properties core.PropSet
	// Cost is its construction cost.
	Cost float64
}

// MultiSolution is a solution that may mix binary and multi-valued
// classifiers.
type MultiSolution struct {
	// Classifiers holds the selected binary classifiers.
	Classifiers []core.ClassifierID
	// MultiValued holds indices into the multi-valued candidate list.
	MultiValued []int
	// Cost is the total construction cost.
	Cost float64
}

// GeneralWithMultiValued extends Algorithm 3 with multi-valued classifier
// candidates, per Section 5.3: the Weighted Set Cover reduction gains one
// set per multi-valued classifier, covering every element whose property the
// classifier decides (usable in any query — deciding an attribute's value
// decides each of its value-properties). The analysis, and hence the
// approximation guarantee, carries over to the extended instance.
//
// Preprocessing is forced to the Minimal level: Algorithm 1's forced-
// selection reasoning assumes binary classifiers are the only cover options,
// which multi-valued candidates would invalidate.
func GeneralWithMultiValued(inst *core.Instance, multis []MultiValued, opts Options) (*MultiSolution, error) {
	for i, m := range multis {
		if m.Cost < 0 || math.IsNaN(m.Cost) || math.IsInf(m.Cost, 0) {
			return nil, fmt.Errorf("solver: multi-valued classifier %d (%s) has invalid cost %v", i, m.Name, m.Cost)
		}
	}
	opts.Prep = prep.Minimal
	ctx, cancelTimeout, opts := opts.solveContext()
	defer cancelTimeout()
	r, err := prep.RunCtx(ctx, inst, opts.Prep)
	if err != nil {
		return nil, err
	}

	// Minimal prep yields a single component holding every residual query.
	var picksBinary []core.ClassifierID
	var picksMulti []int
	for _, comp := range r.Components {
		cc, _ := cache.Canonical(nil, "", r, comp)
		sc, setIDs := buildWSC(r, cc)
		multiSets := addMultiValuedSets(r, cc.Queries, sc, multis)
		cc.Release()
		if sc.NumElements() == 0 {
			continue
		}

		sets, _, _, err := runWSC(ctx, sc, opts.WSC)
		if err != nil {
			return nil, err
		}
		for _, s := range sets {
			if s < len(setIDs) {
				picksBinary = append(picksBinary, setIDs[s])
			} else {
				picksMulti = append(picksMulti, multiSets[s-len(setIDs)])
			}
		}
	}

	all := append(append([]core.ClassifierID(nil), r.Selected...), picksBinary...)
	base := core.NewSolution(inst, all)
	// Deduplicate multi picks (a candidate useful in several components
	// would otherwise be counted twice).
	seenMulti := make(map[int]bool, len(picksMulti))
	uniqueMulti := picksMulti[:0]
	for _, mi := range picksMulti {
		if !seenMulti[mi] {
			seenMulti[mi] = true
			uniqueMulti = append(uniqueMulti, mi)
		}
	}
	out := &MultiSolution{Classifiers: base.Selected, MultiValued: uniqueMulti, Cost: base.Cost}
	for _, mi := range uniqueMulti {
		out.Cost += multis[mi].Cost
	}
	if opts.Validate {
		if err := VerifyMulti(inst, multis, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// addMultiValuedSets appends one WSC set per useful multi-valued candidate
// to sc, the reduction buildWSC made of the component whose canonical query
// order is queries, and returns the candidate index of each appended set.
func addMultiValuedSets(r *prep.Result, queries []int, sc *setcover.Instance, multis []MultiValued) []int {
	inst := r.Inst
	var added []int
	var elems []int32
	for mi, m := range multis {
		elems = elems[:0]
		base := int32(0)
		for _, qi := range queries {
			q, covered := inst.Query(qi), r.CoveredMask[qi]
			mask, _ := m.Properties.Intersect(q).MaskIn(q)
			for mm := mask &^ covered; mm != 0; mm &= mm - 1 {
				elems = append(elems, element(base, covered, bits.TrailingZeros64(mm)))
			}
			base += int32(q.Len() - bits.OnesCount64(covered))
		}
		if len(elems) == 0 {
			continue
		}
		sc.AddSet(elems, m.Cost)
		added = append(added, mi)
	}
	return added
}

// runWSC executes method's set-cover engine(s) under ctx and returns the
// cheapest result plus the name of the engine that produced it ("greedy",
// "primal-dual", or "lp-rounding"). The race runs under a "wsc" span whose
// "engine" attr names the winner, with one "wsc.run" child per engine
// executed.
func runWSC(ctx context.Context, sc *setcover.Instance, method WSCMethod) ([]int, float64, string, error) {
	wsp, ctx := obs.StartChild(ctx, SpanWSC,
		obs.Int("elements", sc.NumElements()), obs.Int("sets_available", sc.NumSets()))
	arms, err := wscArms(sc, method)
	var sets []int
	var cost float64
	var name string
	if err == nil {
		sets, cost, name, err = runWSCEngines(ctx, wsp, arms)
	}
	if err == nil {
		wsp.SetAttr(obs.Str("engine", name), obs.F64("cost", cost), obs.Int("sets", len(sets)))
	}
	wsp.EndErr(err)
	return sets, cost, name, err
}

// wscArm is one set-cover engine available to the race.
type wscArm struct {
	name string
	run  func(context.Context) ([]int, float64, error)
}

// wscArms lists the engine(s) method runs, in the documented race order.
func wscArms(sc *setcover.Instance, method WSCMethod) ([]wscArm, error) {
	switch method {
	case WSCAuto:
		return []wscArm{{"greedy", sc.GreedyCtx}, {"primal-dual", sc.PrimalDualCtx}}, nil
	case WSCGreedy:
		return []wscArm{{"greedy", sc.GreedyCtx}}, nil
	case WSCPrimalDual:
		return []wscArm{{"primal-dual", sc.PrimalDualCtx}}, nil
	case WSCLPRounding:
		return []wscArm{{"lp-rounding", sc.LPRoundingCtx}}, nil
	case WSCAutoLP:
		return []wscArm{{"greedy", sc.GreedyCtx}, {"lp-rounding", sc.LPRoundingCtx}}, nil
	default:
		return nil, fmt.Errorf("solver: unknown WSC method %v", method)
	}
}

// runWSCEngines runs the arms of the engine race under wsp and keeps the
// cheapest completed output.
//
// A non-context arm failure does not abort the component when another arm
// completed: the race degrades to the surviving results, counting the
// failure in mc3_wsc_engine_failures. Context errors still fail fast — a
// cover computed after the deadline would be discarded upstream anyway.
func runWSCEngines(ctx context.Context, wsp *obs.Span, arms []wscArm) ([]int, float64, string, error) {
	metrics := wsp.Tracer().Metrics()

	type outcome struct {
		sets []int
		cost float64
		name string
	}
	var results []outcome
	var failures []error
	for _, a := range arms {
		if err := ctx.Err(); err != nil {
			return nil, 0, "", err
		}
		rsp, rctx := obs.StartChild(ctx, SpanWSCRun, obs.Str("engine", a.name))
		sets, cost, err := a.run(rctx)
		if err != nil {
			rsp.EndErr(err)
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, 0, "", err
			}
			metrics.Counter("mc3_wsc_engine_failures").Inc()
			failures = append(failures, fmt.Errorf("solver: wsc %s: %w", a.name, err))
			continue
		}
		rsp.SetAttr(obs.F64("cost", cost), obs.Int("sets", len(sets)))
		rsp.End()
		results = append(results, outcome{sets: sets, cost: cost, name: a.name})
	}
	if len(results) == 0 {
		return nil, 0, "", errors.Join(failures...)
	}
	if len(failures) > 0 {
		wsp.SetAttr(obs.Int("engine_failures", len(failures)))
	}
	best := 0
	for i := 1; i < len(results); i++ {
		if results[i].cost < results[best].cost {
			best = i
		}
	}
	return results[best].sets, results[best].cost, results[best].name, nil
}

// VerifyMulti checks that a mixed binary/multi-valued solution covers every
// query: per query, the union of selected binary classifiers that are
// subsets of it, plus the properties decided by selected multi-valued
// classifiers, must equal the query.
func VerifyMulti(inst *core.Instance, multis []MultiValued, sol *MultiSolution) error {
	if sol == nil {
		return fmt.Errorf("solver: nil multi solution")
	}
	inBinary := make(map[core.ClassifierID]bool, len(sol.Classifiers))
	for _, id := range sol.Classifiers {
		if id < 0 || int(id) >= inst.NumClassifiers() {
			return fmt.Errorf("solver: invalid classifier ID %d", id)
		}
		inBinary[id] = true
	}
	var decided core.PropSet
	for _, mi := range sol.MultiValued {
		if mi < 0 || mi >= len(multis) {
			return fmt.Errorf("solver: invalid multi-valued index %d", mi)
		}
		decided = decided.Union(multis[mi].Properties)
	}
	for qi := 0; qi < inst.NumQueries(); qi++ {
		q := inst.Query(qi)
		union, _ := decided.Intersect(q).MaskIn(q)
		for _, qc := range inst.QueryClassifiers(qi) {
			if inBinary[qc.ID] {
				union |= qc.Mask
			}
		}
		if union != inst.FullMask(qi) {
			return fmt.Errorf("solver: query %v not covered by mixed solution", q)
		}
	}
	// Cost consistency.
	want := inst.SolutionCost(sol.Classifiers)
	for _, mi := range sol.MultiValued {
		want += multis[mi].Cost
	}
	// Relative tolerance: summation order differs between compose paths, so
	// the admissible absolute drift scales with the cost magnitude (an
	// absolute 1e-6 falsely rejects correct solutions once costs reach ~1e7).
	if diff := math.Abs(want - sol.Cost); diff > 1e-6+1e-9*math.Max(math.Abs(want), math.Abs(sol.Cost)) {
		return fmt.Errorf("solver: mixed solution cost %v != recomputed %v", sol.Cost, want)
	}
	return nil
}
