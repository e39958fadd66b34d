package solver

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bipartite"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prep"
)

// KTwo is the paper's Algorithm 2 — the exact, polynomial-time MC³[S] solver
// for instances whose queries have length at most 2 (Theorem 4.1):
// preprocessing, then per residual component a reduction to bipartite
// Weighted Vertex Cover (singleton classifiers on the left, length-2
// classifiers on the right, two edges per query), solved exactly through
// Max-Flow.
//
// Honors opts.Context / opts.Timeout (cancellation checkpoints in
// preprocessing, component dispatch, and the max-flow engines), populates
// opts.Stats when attached, and emits spans through opts.Tracer.
func KTwo(inst *core.Instance, opts Options) (*core.Solution, error) {
	if inst.MaxQueryLen() > 2 {
		return nil, fmt.Errorf("solver: KTwo requires max query length ≤ 2, instance has %d", inst.MaxQueryLen())
	}
	ctx, cancelTimeout, opts := opts.solveContext()
	defer cancelTimeout()
	sp, ctx, opts := startSolve(ctx, opts, SpanSolve, "mc3-short")
	sp.SetAttr(obs.Int("queries", inst.NumQueries()), obs.Int("classifiers", inst.NumClassifiers()))
	sol, err := ktwoWithCtx(ctx, inst, opts)
	sp.EndErr(err)
	return sol, err
}

// ktwoWithCtx is KTwo's body, split out so the solve span observes the final
// error uniformly.
func ktwoWithCtx(ctx context.Context, inst *core.Instance, opts Options) (*core.Solution, error) {
	r, err := prep.RunCtxAmbient(ctx, inst, opts.Prep, opts.AmbientQueryLen)
	if err != nil {
		return nil, err
	}
	picks, err := ktwoResidual(ctx, r, opts)
	if err != nil {
		return nil, err
	}
	return assemble(inst, r, picks, opts)
}

// ktwoResidual solves the residual of a preprocessed k ≤ 2 instance exactly,
// component by component (see solveResidual), and returns the picked
// classifier IDs. Max-flow work is observed through the engines' own spans.
func ktwoResidual(ctx context.Context, r *prep.Result, opts Options) ([]core.ClassifierID, error) {
	return solveResidual(ctx, r, opts, "ktwo/"+opts.Engine.String(), ktwoComponent)
}

// ktwoComponent solves the canonical component cc exactly: it builds the
// bipartite WVC reduction's flow network, runs the max-flow engine over it,
// and maps the cover back to classifiers. The cover is read off the minimal
// minimum cut, which does not depend on the order of the network's nodes.
func ktwoComponent(ctx context.Context, r *prep.Result, cc *cache.Component, opts Options) ([]core.ClassifierID, error) {
	inst := r.Inst
	// Left: one node per property in the component (its singleton
	// classifier, or a +Inf placeholder when that classifier is absent
	// or pruned). Right: one node per residual query (its full pair
	// classifier or a placeholder). The construction buffers come from the
	// component scratch pool — bipartite.New copies the weights, and the
	// node → classifier tables are read before the scratch, with its grown
	// buffers, goes back.
	ws := compScratchPool.Get().(*compScratch)
	propNode := ws.propNode
	weightL, idL := ws.weightL[:0], ws.idL[:0]
	weightR, idR := ws.weightR[:0], ws.idR[:0]
	edges := ws.edges[:0]
	defer func() {
		ws.weightL, ws.idL, ws.weightR, ws.idR, ws.edges = weightL, idL, weightR, idR, edges
		clear(propNode)
		compScratchPool.Put(ws)
	}()
	leftOf := func(p core.PropID) int32 {
		if i, ok := propNode[p]; ok {
			return i
		}
		i := int32(len(weightL))
		propNode[p] = i
		w := math.Inf(1)
		id := core.NoClassifier
		if cid, ok := inst.ClassifierIDOf(core.NewPropSet(p)); ok && !r.Removed[cid] {
			w = r.EffCost[cid]
			id = cid
		}
		weightL = append(weightL, w)
		idL = append(idL, id)
		return i
	}

	for _, qi := range cc.Queries {
		q := inst.Query(qi)
		if q.Len() != 2 {
			return nil, fmt.Errorf("solver: residual query %v has length %d; preprocessing should leave only length-2 queries", q, q.Len())
		}
		ri := int32(len(weightR))
		w := math.Inf(1)
		id := core.NoClassifier
		full := inst.FullMask(qi)
		for _, qc := range inst.QueryClassifiers(qi) {
			if qc.Mask == full && !r.Removed[qc.ID] {
				w = r.EffCost[qc.ID]
				id = qc.ID
				break
			}
		}
		weightR = append(weightR, w)
		idR = append(idR, id)
		edges = append(edges, wvcEdge{leftOf(q[0]), ri}, wvcEdge{leftOf(q[1]), ri})
	}

	wvc, err := bipartite.New(weightL, weightR)
	if err != nil {
		return nil, err
	}
	for _, e := range edges {
		if err := wvc.AddEdge(int(e.l), int(e.r)); err != nil {
			return nil, err
		}
	}
	coverL, coverR, _, err := wvc.SolveCtx(ctx, opts.Engine, nil)
	if err != nil {
		if isContextErr(err) {
			return nil, err
		}
		return nil, fmt.Errorf("solver: component infeasible: %w", err)
	}
	var picks []core.ClassifierID
	for i, in := range coverL {
		if !in {
			continue
		}
		if idL[i] == core.NoClassifier {
			return nil, fmt.Errorf("solver: internal error: placeholder singleton selected")
		}
		picks = append(picks, idL[i])
	}
	for i, in := range coverR {
		if !in {
			continue
		}
		if idR[i] == core.NoClassifier {
			return nil, fmt.Errorf("solver: internal error: placeholder pair selected")
		}
		picks = append(picks, idR[i])
	}
	return picks, nil
}
