package solver

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/core"
)

// The budgeted partial-cover variant (Sections 5.3 and 8): queries carry
// importance weights, classifier spending is capped by a budget, and the
// goal is to maximize the total weight of fully covered queries. The paper
// leaves this for future work and proves the complete-cover WSC reduction
// does not extend to it (partial progress on a query is worth nothing — a
// half-covered query can even hurt user satisfaction); it also remarks the
// variant is much harder to approximate. Accordingly this implementation
// provides:
//
//   - Budgeted: a marginal-weight-per-marginal-cost greedy heuristic with
//     no approximation guarantee (none is possible along the paper's
//     reduction route), and
//   - BudgetedExact: exponential enumeration for small instances, used to
//     measure the heuristic's empirical quality in tests and ablations.
type BudgetedSolution struct {
	// Selected holds the chosen classifier IDs (sorted, unique).
	Selected []core.ClassifierID
	// Cost is their total construction cost (≤ the budget).
	Cost float64
	// CoveredWeight is the summed weight of fully covered queries.
	CoveredWeight float64
	// Covered marks which queries are fully covered.
	Covered []bool
}

// validateBudgetedInput checks weights and budget.
func validateBudgetedInput(inst *core.Instance, weights []float64, budget float64) error {
	if len(weights) != inst.NumQueries() {
		return fmt.Errorf("solver: %d weights for %d queries", len(weights), inst.NumQueries())
	}
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("solver: invalid weight %v for query %d", w, i)
		}
	}
	if budget < 0 || math.IsNaN(budget) {
		return fmt.Errorf("solver: invalid budget %v", budget)
	}
	return nil
}

// budgetedItem prioritizes queries by weight per completion cost.
type budgetedItem struct {
	query int
	ratio float64 // weight / completion cost (Inf when free)
	cost  float64
}

type budgetedHeap []budgetedItem

func (h budgetedHeap) Len() int            { return len(h) }
func (h budgetedHeap) Less(i, j int) bool  { return h[i].ratio > h[j].ratio } // max-heap
func (h budgetedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *budgetedHeap) Push(x interface{}) { *h = append(*h, x.(budgetedItem)) }
func (h *budgetedHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// Budgeted greedily covers queries by descending weight-per-completion-cost
// while the budget lasts: at each step it completes the affordable query
// with the best ratio (classifiers already bought are free for later
// queries, so completion costs only fall). Heuristic only — the variant
// admits no guarantee via the paper's reduction; see BudgetedExact for
// ground truth on small instances.
func Budgeted(inst *core.Instance, weights []float64, budget float64, opts Options) (*BudgetedSolution, error) {
	if err := validateBudgetedInput(inst, weights, budget); err != nil {
		return nil, err
	}
	n := inst.NumQueries()
	eff := append([]float64(nil), inst.Costs()...)
	selected := make([]bool, inst.NumClassifiers())
	coveredMask := make([]uint64, n)
	covered := make([]bool, n)
	remaining := budget

	val := make([]float64, n) // latest completion cost per query

	evaluate := func(qi int) (float64, []core.ClassifierID) {
		return minQueryCover(inst, qi, coveredMask[qi], eff)
	}

	h := make(budgetedHeap, 0, n)
	pushQuery := func(qi int) {
		c, _ := evaluate(qi)
		val[qi] = c
		// A free completion (c == 0: zero-cost classifiers, or everything the
		// query needs was already bought) is defined to have ratio +Inf — it
		// is taken before any paid completion, even when the query's weight is
		// also 0. The naive weights[qi]/c would make that case 0/0 = NaN, and
		// one NaN item corrupts the max-heap: Less is false in both
		// directions, so sift comparisons order arbitrarily and unrelated
		// items can get stuck behind it.
		ratio := math.Inf(1)
		if c > 0 {
			ratio = weights[qi] / c
		}
		heap.Push(&h, budgetedItem{query: qi, ratio: ratio, cost: c})
	}
	for qi := 0; qi < n; qi++ {
		pushQuery(qi)
	}

	out := &BudgetedSolution{Covered: covered}
	var picks []core.ClassifierID
	deferred := make([]budgetedItem, 0, n) // affordable later? re-queued after selections

	for h.Len() > 0 {
		it := heap.Pop(&h).(budgetedItem)
		qi := it.query
		if covered[qi] || it.cost != val[qi] {
			continue // stale
		}
		if math.IsInf(it.cost, 1) {
			continue // uncoverable query
		}
		if it.cost > remaining+1e-12 {
			// Too expensive right now; it may become affordable after other
			// selections shrink its completion cost.
			deferred = append(deferred, it)
			continue
		}
		// Buy the completion.
		_, ids := evaluate(qi)
		for _, id := range ids {
			if selected[id] {
				continue
			}
			selected[id] = true
			remaining -= eff[id]
			out.Cost += eff[id]
			eff[id] = 0
			picks = append(picks, id)
			for _, q2 := range inst.ClassifierQueries(id) {
				if covered[q2] {
					continue
				}
				// q2 is one of id's queries, so id is a subset of it.
				mask, _ := inst.Classifier(id).MaskIn(inst.Query(int(q2)))
				coveredMask[q2] |= mask
				if coveredMask[q2] == inst.FullMask(int(q2)) {
					covered[q2] = true
					out.CoveredWeight += weights[q2]
				} else {
					pushQuery(int(q2))
				}
			}
		}
		if !covered[qi] {
			return nil, fmt.Errorf("solver: internal error: budgeted completion left query %d uncovered", qi)
		}
		// Re-arm deferred queries: selections may have made them affordable.
		for _, d := range deferred {
			if !covered[d.query] {
				pushQuery(d.query)
			}
		}
		deferred = deferred[:0]
	}

	sol := core.NewSolution(inst, picks)
	out.Selected = sol.Selected
	// Recompute cost/weight from scratch for consistency.
	out.Cost = sol.Cost
	out.CoveredWeight = 0
	cov := inst.Covered(out.Selected)
	copy(out.Covered, cov)
	for qi, c := range cov {
		if c {
			out.CoveredWeight += weights[qi]
		}
	}
	if out.Cost > budget+1e-9 {
		return nil, fmt.Errorf("solver: internal error: budgeted spend %v exceeds budget %v", out.Cost, budget)
	}
	_ = opts // partial solutions have no full-cover verification to run
	return out, nil
}

// BudgetedExact enumerates all classifier subsets within budget and returns
// one maximizing covered weight (ties broken toward lower cost).
// Exponential; rejects instances with more than BudgetedExactLimit
// classifiers.
func BudgetedExact(inst *core.Instance, weights []float64, budget float64, opts Options) (*BudgetedSolution, error) {
	if err := validateBudgetedInput(inst, weights, budget); err != nil {
		return nil, err
	}
	m := inst.NumClassifiers()
	if m > BudgetedExactLimit {
		return nil, fmt.Errorf("solver: BudgetedExact limited to %d classifiers, instance has %d", BudgetedExactLimit, m)
	}
	bestWeight := -1.0
	bestCost := math.Inf(1)
	var bestSet []core.ClassifierID

	ids := make([]core.ClassifierID, 0, m)
	for mask := 0; mask < 1<<uint(m); mask++ {
		ids = ids[:0]
		var cost float64
		for id := 0; id < m; id++ {
			if mask&(1<<uint(id)) != 0 {
				ids = append(ids, core.ClassifierID(id))
				cost += inst.Cost(core.ClassifierID(id))
			}
		}
		if cost > budget+1e-12 {
			continue
		}
		var weight float64
		for qi, c := range inst.Covered(ids) {
			if c {
				weight += weights[qi]
			}
		}
		if weight > bestWeight+1e-12 || (math.Abs(weight-bestWeight) <= 1e-12 && cost < bestCost) {
			bestWeight = weight
			bestCost = cost
			bestSet = append(bestSet[:0], ids...)
		}
	}

	sol := core.NewSolution(inst, bestSet)
	out := &BudgetedSolution{
		Selected: sol.Selected,
		Cost:     sol.Cost,
		Covered:  inst.Covered(sol.Selected),
	}
	for qi, c := range out.Covered {
		if c {
			out.CoveredWeight += weights[qi]
		}
	}
	return out, nil
}

// BudgetedExactLimit caps BudgetedExact's instance size.
const BudgetedExactLimit = 22
