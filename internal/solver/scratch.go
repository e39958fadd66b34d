package solver

import (
	"sync"

	"repro/internal/core"
)

// compScratch is the per-component working memory of the residual solvers:
// buildWSC's per-set fill cursors, and ktwoComponent's bipartite
// construction buffers. A solve over a workload with thousands of small components used
// to allocate fresh maps and slices for every one; pooling the scratch makes
// the steady-state cost of a component solve the reduction output alone
// (the setcover/bipartite instances, which outlive the call), enforced by
// AllocsPerRun tests.
//
// Components may be solved concurrently (Options.Parallelism), so each
// worker checks out its own scratch from the pool. Buffers come back dirty;
// users initialize every entry they later read.
type compScratch struct {
	// buildWSC: per local classifier, its set's fill cursor.
	cursor []int32

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
