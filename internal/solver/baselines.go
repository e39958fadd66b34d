package solver

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/core"
)

// PropertyOriented is the baseline that trains one singleton classifier per
// property appearing in the query load — the "one extreme" of Section 1. It
// fails if some required singleton classifier is unavailable (infinite cost).
func PropertyOriented(inst *core.Instance, opts Options) (*core.Solution, error) {
	seen := make(map[core.PropID]bool)
	var picks []core.ClassifierID
	for qi := 0; qi < inst.NumQueries(); qi++ {
		for _, p := range inst.Query(qi) {
			if seen[p] {
				continue
			}
			seen[p] = true
			id, ok := inst.ClassifierIDOf(core.NewPropSet(p))
			if !ok {
				return nil, fmt.Errorf("solver: property-oriented needs singleton classifier for property %q, which is unavailable", inst.Universe.Name(p))
			}
			picks = append(picks, id)
		}
	}
	sol := core.NewSolution(inst, picks)
	if opts.Validate {
		if err := inst.Verify(sol); err != nil {
			return nil, err
		}
	}
	return sol, nil
}

// QueryOriented is the baseline that trains one dedicated classifier per
// query — the other extreme of Section 1. It fails if some full-query
// classifier is unavailable.
func QueryOriented(inst *core.Instance, opts Options) (*core.Solution, error) {
	var picks []core.ClassifierID
	for qi := 0; qi < inst.NumQueries(); qi++ {
		id, ok := inst.ClassifierIDOf(inst.Query(qi))
		if !ok {
			return nil, fmt.Errorf("solver: query-oriented needs the full classifier for query %v, which is unavailable", inst.Query(qi))
		}
		picks = append(picks, id)
	}
	sol := core.NewSolution(inst, picks)
	if opts.Validate {
		if err := inst.Verify(sol); err != nil {
			return nil, err
		}
	}
	return sol, nil
}

// lgItem is a Local-Greedy heap entry: a query and the cover cost computed
// for it at push time.
type lgItem struct {
	query int
	cost  float64
}

type lgHeap []lgItem

func (h lgHeap) Len() int            { return len(h) }
func (h lgHeap) Less(i, j int) bool  { return h[i].cost < h[j].cost }
func (h lgHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *lgHeap) Push(x interface{}) { *h = append(*h, x.(lgItem)) }
func (h *lgHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// LocalGreedy is the iterative baseline of Section 6.1: at each step it finds
// the query whose cheapest cover (given previous selections, whose classifiers
// are now free) is minimal, and selects that cover. Per-query minimum covers
// are computed by dynamic programming over the query's property bitmask —
// O(2^k · |C_q|) per evaluation, constant for constant k.
func LocalGreedy(inst *core.Instance, opts Options) (*core.Solution, error) {
	n := inst.NumQueries()
	eff := append([]float64(nil), inst.Costs()...)
	selected := make([]bool, inst.NumClassifiers())
	coveredMask := make([]uint64, n)
	covered := make([]bool, n)

	val := make([]float64, n) // latest computed cover cost per query

	evaluate := func(qi int) (float64, []core.ClassifierID) {
		return minQueryCover(inst, qi, coveredMask[qi], eff)
	}

	h := make(lgHeap, 0, n)
	for qi := 0; qi < n; qi++ {
		c, _ := evaluate(qi)
		if math.IsInf(c, 1) {
			return nil, fmt.Errorf("solver: query %v cannot be covered", inst.Query(qi))
		}
		val[qi] = c
		h = append(h, lgItem{query: qi, cost: c})
	}
	heap.Init(&h)

	var picks []core.ClassifierID
	remaining := n
	for remaining > 0 {
		if h.Len() == 0 {
			return nil, fmt.Errorf("solver: internal error: local-greedy heap drained early")
		}
		it := heap.Pop(&h).(lgItem)
		qi := it.query
		if covered[qi] || it.cost != val[qi] {
			continue // stale entry
		}
		_, ids := evaluate(qi)
		for _, id := range ids {
			if selected[id] {
				continue
			}
			selected[id] = true
			eff[id] = 0
			picks = append(picks, id)
			// Update coverage and re-evaluate affected queries.
			for _, q2 := range inst.ClassifierQueries(id) {
				if covered[q2] {
					continue
				}
				// q2 is one of id's queries, so id is a subset of it.
				mask, _ := inst.Classifier(id).MaskIn(inst.Query(int(q2)))
				coveredMask[q2] |= mask
				if coveredMask[q2] == inst.FullMask(int(q2)) {
					covered[q2] = true
					remaining--
				} else {
					c, _ := evaluate(int(q2))
					if c != val[q2] {
						val[q2] = c
						heap.Push(&h, lgItem{query: int(q2), cost: c})
					}
				}
			}
		}
		if !covered[qi] {
			// The chosen cover must have completed this query.
			return nil, fmt.Errorf("solver: internal error: selected cover left query %d uncovered", qi)
		}
	}
	sol := core.NewSolution(inst, picks)
	if opts.Validate {
		if err := inst.Verify(sol); err != nil {
			return nil, err
		}
	}
	return sol, nil
}

// minQueryCover computes the cheapest set of classifiers completing query
// qi's coverage from startMask to full, under the eff cost vector. It
// returns +Inf cost if impossible.
func minQueryCover(inst *core.Instance, qi int, startMask uint64, eff []float64) (float64, []core.ClassifierID) {
	full := inst.FullMask(qi)
	if startMask == full {
		return 0, nil
	}
	qcs := inst.QueryClassifiers(qi)
	size := int(full) + 1
	const unset = -1
	dp := make([]float64, size)
	parentCls := make([]int32, size)
	parentMask := make([]uint64, size)
	for i := range dp {
		dp[i] = math.Inf(1)
		parentCls[i] = unset
	}
	dp[startMask] = 0
	for m := startMask; m < uint64(size); m++ {
		if math.IsInf(dp[m], 1) {
			continue
		}
		for ci, qc := range qcs {
			nm := m | qc.Mask
			if nm == m {
				continue
			}
			if c := dp[m] + eff[qc.ID]; c < dp[nm] {
				dp[nm] = c
				parentCls[nm] = int32(ci)
				parentMask[nm] = m
			}
		}
	}
	if math.IsInf(dp[full], 1) {
		return math.Inf(1), nil
	}
	var ids []core.ClassifierID
	for m := full; m != startMask; {
		ci := parentCls[m]
		if ci == unset {
			break
		}
		ids = append(ids, qcs[ci].ID)
		m = parentMask[m]
	}
	return dp[full], ids
}
