package solver

import (
	"sync"

	"repro/internal/core"
)

// compScratch is the per-component working memory of the residual solvers:
// buildWSC's classifier → set numbering, and ktwoComponent's bipartite
// construction buffers. A solve over a workload with thousands of small
// components used to allocate fresh maps and slices for every one; pooling
// the scratch makes the steady-state cost of a component solve the
// reduction output alone (the setcover/bipartite instances, which outlive
// the call), enforced by AllocsPerRun tests.
//
// Components may be solved concurrently (Options.Parallelism), so each
// worker checks out its own scratch from the pool. The grow helpers return
// dirty memory; users initialize every entry they later read.
type compScratch struct {
	// buildWSC. setOf is indexed by ClassifierID and is all zero between
	// calls: buildWSC resets the entries it set through cand.
	setOf []int32
	cand  []core.ClassifierID // numbered classifiers, in order of first sighting
	count []int32             // per candidate: element count, then fill cursor

	// ktwoComponent
	propNode map[core.PropID]int32
	weightL  []float64
	weightR  []float64
	idL      []core.ClassifierID
	idR      []core.ClassifierID
	edges    []wvcEdge
}

type wvcEdge struct{ l, r int32 }

var compScratchPool = sync.Pool{New: func() any {
	return &compScratch{propNode: make(map[core.PropID]int32)}
}}

// setNumbering returns the scratch's setOf array, grown to index IDs below
// n; it is all zero.
func (ws *compScratch) setNumbering(n int) []int32 {
	if len(ws.setOf) < n {
		ws.setOf = make([]int32, n)
	}
	return ws.setOf
}
