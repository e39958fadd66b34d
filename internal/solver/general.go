package solver

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prep"
	"repro/internal/setcover"
)

// General is the paper's Algorithm 3 — the MC³[G] solver for arbitrary query
// lengths: preprocessing, reduction to Weighted Set Cover per residual
// component, then the greedy algorithm and the f-approximate algorithm with
// the cheaper output kept. The approximation guarantee is
// min{ln I + ln(k−1) + 1, 2^{k−1}} (Theorem 5.3).
//
// Honors opts.Context / opts.Timeout (cancellation checkpoints in
// preprocessing, component dispatch, and every set-cover engine), populates
// opts.Stats when attached, and emits spans through opts.Tracer.
func General(inst *core.Instance, opts Options) (*core.Solution, error) {
	ctx, cancelTimeout, opts := opts.solveContext()
	defer cancelTimeout()
	sp, ctx, opts := startSolve(ctx, opts, SpanSolve, "mc3-general")
	sp.SetAttr(obs.Int("queries", inst.NumQueries()), obs.Int("classifiers", inst.NumClassifiers()))
	sol, err := generalWithCtx(ctx, inst, opts)
	sp.EndErr(err)
	return sol, err
}

// generalWithCtx is General's body, split out so the solve span observes the
// final error uniformly.
func generalWithCtx(ctx context.Context, inst *core.Instance, opts Options) (*core.Solution, error) {
	r, err := prep.RunCtxAmbient(ctx, inst, opts.Prep, opts.AmbientQueryLen)
	if err != nil {
		return nil, err
	}
	picks, err := generalResidual(ctx, r, opts)
	if err != nil {
		return nil, err
	}
	return assemble(inst, r, picks, opts)
}

// generalResidual covers the residual of a preprocessed instance and returns
// the picked classifier IDs (preprocessing selections not included).
// Components are independent (Observation 3.2) and dispatched through the
// work-stealing scheduler when opts.Parallelism allows, largest-first; the
// concatenation order is fixed, so the result is deterministic.
func generalResidual(ctx context.Context, r *prep.Result, opts Options) ([]core.ClassifierID, error) {
	perComp := make([][]core.ClassifierID, len(r.Components))
	err := ForEachComponent(ctx, len(r.Components), opts.Parallelism,
		func(ci int) int { return len(r.Components[ci]) },
		func(t *Task, ci int) error {
			return generalComponent(ctx, t, r, ci, opts, perComp)
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

// generalComponent covers component ci, writing its picks into perComp[ci].
// With opts.Cache attached, a component whose canonical signature was solved
// before is answered from the cache without building the WSC reduction. The
// WSC build runs as the component's first pipeline stage and the set-cover
// race as a spawned second stage, so the scheduler can overlap one
// component's build with another's solve. The component span covers both
// stages; it goes unreported if dispatch aborts before the second stage.
func generalComponent(ctx context.Context, t *Task, r *prep.Result, ci int, opts Options, perComp [][]core.ClassifierID) error {
	csp, ctx := obs.StartChild(ctx, SpanComponent,
		obs.Int("index", ci), obs.Int("queries", len(r.Components[ci])))
	key, picks, hit := componentCacheLookup(ctx, opts, "general/"+opts.WSC.String(), r, r.Components[ci])
	if hit {
		perComp[ci] = picks
		csp.End()
		return nil
	}
	sc, setIDs := buildWSC(r, r.Components[ci])
	if sc.NumElements() == 0 {
		opts.Cache.Store(key, nil)
		csp.End()
		return nil
	}
	t.Spawn(func() error {
		err := solveWSCComponent(ctx, sc, setIDs, key, ci, opts, perComp)
		csp.EndErr(err)
		return err
	})
	return nil
}

// solveWSCComponent is the second pipeline stage of generalComponent: race
// the set-cover engines over the built reduction, translate the picked sets
// back to classifiers, and memoize the result.
func solveWSCComponent(ctx context.Context, sc *setcover.Instance, setIDs []core.ClassifierID, key cache.Key, ci int, opts Options, perComp [][]core.ClassifierID) error {
	sets, _, _, err := runWSC(ctx, sc, opts.WSC)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return fmt.Errorf("solver: WSC failed on component: %w", err)
	}
	for _, s := range sets {
		perComp[ci] = append(perComp[ci], setIDs[s])
	}
	opts.Cache.Store(key, perComp[ci])
	return nil
}
