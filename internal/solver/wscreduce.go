package solver

import (
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/prep"
	"repro/internal/setcover"
)

// buildWSC reduces one residual component of a preprocessed instance to
// Weighted Set Cover (Section 5.2): for every residual query q and every
// still-uncovered property p ∈ q, a distinct element p_q is created; every
// alive classifier S becomes a set covering the elements {p_q : p ∈ S, S ⊆ q}
// at its effective cost. It returns the WSC instance plus the classifier ID
// of every set (parallel to set indices). Classifiers with non-finite
// effective cost are skipped — they can never be part of a minimum-cost
// solution and would poison the set-cover engines (defense in depth:
// core.NewInstance already drops +Inf-cost classifiers at admission).
//
// The reduction is written straight into the instance's CSR arrays by two
// passes over the component's query rows. Elements are numbered by query,
// in component order, then by uncovered bit, and sets by the first sighting
// of their classifier, so every set's window fills in strictly ascending
// order and no set is sorted. Pass 1 numbers the classifiers and counts each
// set's elements; sets that cover nothing are dropped, and prefix sums of
// the counts place the rest. Pass 2 writes every row's elements into its
// set's window.
func buildWSC(r *prep.Result, comp []int) (*setcover.Instance, []core.ClassifierID) {
	ws := compScratchPool.Get().(*compScratch)
	defer compScratchPool.Put(ws)
	return ws.buildWSC(r, comp)
}

// buildWSC is buildWSC on the scratch ws, which it leaves reusable.
func (ws *compScratch) buildWSC(r *prep.Result, comp []int) (*setcover.Instance, []core.ClassifierID) {
	inst := r.Inst

	// Pass 1. setOf[id] is the candidate number + 1 of classifier id, 0 for
	// one not numbered; cand lists the numbered classifiers, which is also
	// the list setOf is reset through.
	setOf := ws.setNumbering(inst.NumClassifiers())
	cand, count := ws.cand[:0], ws.count[:0]
	numElems := 0
	for _, qi := range comp {
		covered := r.CoveredMask[qi]
		numElems += inst.Query(qi).Len() - bits.OnesCount64(covered)
		for _, qc := range inst.QueryClassifiers(qi) {
			v := setOf[qc.ID]
			if v == 0 {
				id := qc.ID
				if c := r.EffCost[id]; r.Removed[id] || r.SelectedSet[id] || math.IsInf(c, 0) || math.IsNaN(c) {
					// A non-finite cost would poison the greedy ratios and
					// the LP objective; an unusable classifier simply
					// contributes no set.
					continue
				}
				cand, count = append(cand, id), append(count, 0)
				v = int32(len(cand))
				setOf[id] = v
			}
			count[v-1] += int32(bits.OnesCount64(qc.Mask &^ covered))
		}
	}
	defer func() {
		for _, id := range cand {
			setOf[id] = 0
		}
		ws.cand, ws.count = cand, count
	}()

	// Drop the sets that cover nothing, keeping the order of the rest:
	// setOf becomes set number + 1 (0 for a dropped set) and count, compacted
	// in place, each set's fill cursor.
	setOff := make([]int32, 1, len(cand)+1)
	costs := make([]float64, 0, len(cand))
	setIDs := make([]core.ClassifierID, 0, len(cand))
	total := int32(0)
	for i, id := range cand {
		n := count[i]
		if n == 0 {
			setOf[id] = 0
			continue
		}
		count[len(setIDs)] = total
		total += n
		setOff = append(setOff, total)
		costs = append(costs, r.EffCost[id])
		setIDs = append(setIDs, id)
		setOf[id] = int32(len(setIDs))
	}

	// Pass 2. Query qi's uncovered bits get consecutive element indices from
	// base, in bit order, so bit b's index is base plus the number of
	// uncovered bits below it. A covered query has no uncovered bit.
	setElem := make([]int32, total)
	base := int32(0)
	for _, qi := range comp {
		covered := r.CoveredMask[qi]
		for _, qc := range inst.QueryClassifiers(qi) {
			v := setOf[qc.ID]
			if v == 0 {
				continue
			}
			at := count[v-1]
			for m := qc.Mask &^ covered; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m)
				setElem[at] = base + int32(b-bits.OnesCount64(covered&(1<<uint(b)-1)))
				at++
			}
			count[v-1] = at
		}
		base += int32(inst.Query(qi).Len() - bits.OnesCount64(covered))
	}
	return setcover.NewCSR(numElems, setOff, setElem, costs), setIDs
}
