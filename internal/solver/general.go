package solver

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prep"
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

// generalResidual covers the residual of a preprocessed instance component
// by component (see solveResidual) and returns the picked classifier IDs.
func generalResidual(ctx context.Context, r *prep.Result, opts Options) ([]core.ClassifierID, error) {
	return solveResidual(ctx, r, opts, "general/"+opts.WSC.String(), generalComponent)
}

// generalComponent covers the canonical component cc: it builds the WSC
// reduction, races the set-cover engines over it, and maps the picked sets
// back to classifiers.
func generalComponent(ctx context.Context, r *prep.Result, cc *cache.Component, opts Options) ([]core.ClassifierID, error) {
	sc, setIDs := buildWSC(r, cc)
	if sc.NumElements() == 0 {
		return nil, nil
	}
	sets, _, _, err := runWSC(ctx, sc, opts.WSC)
	if err != nil {
		if isContextErr(err) {
			return nil, err
		}
		return nil, fmt.Errorf("solver: WSC failed on component: %w", err)
	}
	picks := make([]core.ClassifierID, len(sets))
	for i, s := range sets {
		picks[i] = setIDs[s]
	}
	return picks, nil
}
