package solver

import (
	"context"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prep"
)

// solveResidual covers the residual of a preprocessed instance and returns
// the picked classifier IDs (preprocessing selections not included).
// Components are independent (Observation 3.2) and dispatched through
// ForEachComponent when opts.Parallelism allows, largest-first; the
// concatenation order is fixed, so the result is deterministic.
//
// Each component is put in canonical order once, and solve covers it in
// that order and returns its picks, so a component's cover depends only on
// its structure. Each component runs under its own span. With opts.Cache
// attached, a component whose canonical signature was solved before under
// domain is answered from the cache without calling solve, and a fresh
// solve is memoized.
func solveResidual(ctx context.Context, r *prep.Result, opts Options, domain string,
	solve func(ctx context.Context, r *prep.Result, cc *cache.Component, opts Options) ([]core.ClassifierID, error)) ([]core.ClassifierID, error) {
	perComp := make([][]core.ClassifierID, len(r.Components))
	err := ForEachComponent(ctx, len(r.Components), opts.Parallelism,
		func(ci int) int { return len(r.Components[ci]) },
		func(ci int) error {
			comp := r.Components[ci]
			csp, ctx := obs.StartChild(ctx, SpanComponent,
				obs.Int("index", ci), obs.Int("queries", len(comp)))
			cc, key := cache.Canonical(opts.Cache, domain, r, comp)
			defer cc.Release()
			picks, hit := componentCacheLookup(ctx, opts.Cache, key)
			var err error
			if !hit {
				if picks, err = solve(ctx, r, cc, opts); err == nil {
					opts.Cache.Store(key, picks)
				}
			}
			perComp[ci] = picks
			csp.EndErr(err)
			return err
		})
	if err != nil {
		return nil, err
	}
	var picks []core.ClassifierID
	for _, p := range perComp {
		picks = append(picks, p...)
	}
	return picks, nil
}
