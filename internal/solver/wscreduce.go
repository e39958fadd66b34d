package solver

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/prep"
	"repro/internal/setcover"
)

// buildWSC reduces one residual component of a preprocessed instance, in
// its canonical order cc, to Weighted Set Cover (Section 5.2): for every
// residual query q and every still-uncovered property p ∈ q, a distinct
// element p_q is created; every alive classifier S becomes a set covering
// the elements {p_q : p ∈ S, S ⊆ q} at its effective cost. It returns the WSC
// instance plus the classifier ID of every set (parallel to set indices).
// Classifiers with non-finite effective cost are skipped — they can never be
// part of a minimum-cost solution and would poison the set-cover engines
// (defense in depth: core.NewInstance already drops +Inf-cost classifiers at
// admission).
//
// The reduction is written straight into the instance's CSR arrays.
// Elements are numbered by query, in canonical order, then by uncovered
// bit, and sets in local-number order, so every set's window fills in
// strictly ascending order and no set is sorted. The sets are placed by
// prefix sums of the component's per-classifier uncovered counts, dropping
// selected, non-finite and empty ones, and one pass over the component's
// query rows writes every row's elements into its set's window.
func buildWSC(r *prep.Result, cc *cache.Component) (*setcover.Instance, []core.ClassifierID) {
	ws := compScratchPool.Get().(*compScratch)
	defer compScratchPool.Put(ws)
	return ws.buildWSC(r, cc)
}

// buildWSC is buildWSC on the scratch ws, which it leaves reusable.
func (ws *compScratch) buildWSC(r *prep.Result, cc *cache.Component) (*setcover.Instance, []core.ClassifierID) {
	inst := r.Inst

	// Sets in local-number order. cursor[li] is a kept set's fill cursor,
	// and -1 for a dropped one.
	n := len(cc.Classifiers)
	cursor := slices.Grow(ws.cursor[:0], n)[:n]
	ws.cursor = cursor
	setOff := make([]int32, 1, n+1)
	costs := make([]float64, 0, n)
	setIDs := make([]core.ClassifierID, 0, n)
	total := int32(0)
	for li, id := range cc.Classifiers {
		if c := r.EffCost[id]; cc.Uncovered[li] == 0 || r.SelectedSet[id] || math.IsInf(c, 0) || math.IsNaN(c) {
			// A non-finite cost would poison the greedy ratios and the LP
			// objective; an unusable classifier simply contributes no set.
			cursor[li] = -1
			continue
		}
		cursor[li] = total
		total += cc.Uncovered[li]
		setOff = append(setOff, total)
		costs = append(costs, r.EffCost[id])
		setIDs = append(setIDs, id)
	}

	setElem := make([]int32, total)
	base := int32(0)
	for _, qi := range cc.Queries {
		covered := r.CoveredMask[qi]
		for _, qc := range inst.QueryClassifiers(qi) {
			li := cc.Local(qc.ID)
			if li < 0 || cursor[li] < 0 {
				continue
			}
			at := cursor[li]
			for m := qc.Mask &^ covered; m != 0; m &= m - 1 {
				setElem[at] = element(base, covered, bits.TrailingZeros64(m))
				at++
			}
			cursor[li] = at
		}
		base += int32(inst.Query(qi).Len() - bits.OnesCount64(covered))
	}
	return setcover.NewCSR(int(base), setOff, setElem, costs), setIDs
}

// element numbers uncovered bit b of a query whose covered bits are covered
// and whose elements start at base: a query's uncovered bits get
// consecutive numbers in bit order.
func element(base int32, covered uint64, b int) int32 {
	return base + int32(b-bits.OnesCount64(covered&(1<<uint(b)-1)))
}
