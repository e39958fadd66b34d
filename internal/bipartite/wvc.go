// Package bipartite solves the Weighted Vertex Cover problem on bipartite
// graphs exactly and in polynomial time, by the folklore linear reduction to
// Max-Flow (Theorem 2.3 in the paper, described e.g. in Baïou & Barahona):
// connect a source to every left vertex with capacity equal to its weight,
// every right vertex to a sink likewise, and every graph edge left→right with
// infinite capacity; a minimum s-t cut then picks, per edge, which endpoint
// pays, and the cut's finite edges identify a minimum-weight cover.
//
// This is the engine of the paper's Algorithm 2 (exact MC³ for k = 2).
package bipartite

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/maxflow"
)

// Engine selects the max-flow algorithm used underneath.
type Engine int

const (
	// Dinic is the default engine, the paper's empirical winner [10].
	Dinic Engine = iota
	// PushRelabel is the FIFO push-relabel alternative, used for
	// cross-checking and ablation.
	PushRelabel
)

// String returns the engine name.
func (e Engine) String() string {
	switch e {
	case Dinic:
		return "dinic"
	case PushRelabel:
		return "push-relabel"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// ErrInfeasible is returned when no finite-weight cover exists (some edge has
// infinite weight on both endpoints).
var ErrInfeasible = errors.New("bipartite: no finite-weight vertex cover exists")

// WVC is a weighted bipartite vertex-cover instance under construction.
// Weights must be non-negative; math.Inf(1) marks vertices that must not be
// chosen (the paper keeps infinite-weight classifiers as graph nodes in the
// k = 2 reduction).
type WVC struct {
	weightL []float64
	weightR []float64
	edges   [][2]int32
}

// New returns a WVC instance over the given left/right vertex weights. The
// weight slices are copied.
func New(weightL, weightR []float64) (*WVC, error) {
	w := &WVC{
		weightL: append([]float64(nil), weightL...),
		weightR: append([]float64(nil), weightR...),
	}
	for _, ws := range [][]float64{w.weightL, w.weightR} {
		for i, v := range ws {
			if v < 0 || math.IsNaN(v) {
				return nil, fmt.Errorf("bipartite: invalid weight %v at index %d", v, i)
			}
		}
	}
	return w, nil
}

// AddEdge adds the edge (l, r) that the cover must hit.
func (w *WVC) AddEdge(l, r int) error {
	if l < 0 || l >= len(w.weightL) || r < 0 || r >= len(w.weightR) {
		return fmt.Errorf("bipartite: edge (%d,%d) out of range (%d,%d)", l, r, len(w.weightL), len(w.weightR))
	}
	w.edges = append(w.edges, [2]int32{int32(l), int32(r)})
	return nil
}

// NumEdges returns the number of edges added.
func (w *WVC) NumEdges() int { return len(w.edges) }

// Solve computes a minimum-weight vertex cover. It returns per-side
// membership masks and the total cover weight. It fails with ErrInfeasible if
// some edge has infinite weight on both endpoints.
func (w *WVC) Solve(engine Engine) (coverL, coverR []bool, weight float64, err error) {
	return w.SolveCtx(context.Background(), engine, nil)
}

// SolveCtx is Solve with cancellation and max-flow work accounting: the
// context is handed to the underlying engine, which checks it at phase
// boundaries and returns ctx.Err() when it fires. A nil st skips accounting.
func (w *WVC) SolveCtx(ctx context.Context, engine Engine, st *maxflow.Stats) (coverL, coverR []bool, weight float64, err error) {
	nL, nR := len(w.weightL), len(w.weightR)
	// Node layout: 0 = source, 1..nL = left, nL+1..nL+nR = right, last = sink.
	s, t := 0, nL+nR+1
	g := maxflow.NewGraph(nL + nR + 2)

	for i, wt := range w.weightL {
		g.AddEdge(s, 1+i, wt)
	}
	for j, wt := range w.weightR {
		g.AddEdge(1+nL+j, t, wt)
	}
	for _, e := range w.edges {
		if math.IsInf(w.weightL[e[0]], 1) && math.IsInf(w.weightR[e[1]], 1) {
			return nil, nil, 0, ErrInfeasible
		}
		g.AddEdge(1+int(e[0]), 1+nL+int(e[1]), math.Inf(1))
	}

	switch engine {
	case Dinic:
		weight, err = maxflow.DinicCtx(ctx, g, s, t, st)
	case PushRelabel:
		weight, err = maxflow.PushRelabelCtx(ctx, g, s, t, st)
	default:
		return nil, nil, 0, fmt.Errorf("bipartite: unknown engine %v", engine)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	if math.IsInf(weight, 1) {
		return nil, nil, 0, ErrInfeasible
	}

	side := g.SourceSide(s)
	coverL = make([]bool, nL)
	coverR = make([]bool, nR)
	for i := 0; i < nL; i++ {
		coverL[i] = !side[1+i] // source edge crosses the cut
	}
	for j := 0; j < nR; j++ {
		coverR[j] = side[1+nL+j] // sink edge crosses the cut
	}
	return coverL, coverR, weight, nil
}
