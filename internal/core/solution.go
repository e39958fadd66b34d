package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Solution is a set of classifiers selected to cover the query load, plus its
// total construction cost (the sum of the selected classifiers' costs).
type Solution struct {
	// Selected holds the chosen classifier IDs, sorted ascending, unique.
	Selected []ClassifierID
	// Cost is the total construction cost of the selected classifiers.
	Cost float64
}

// NewSolution builds a canonical Solution from ids, deduplicating and
// computing the cost against inst.
func NewSolution(inst *Instance, ids []ClassifierID) *Solution {
	sorted := make([]ClassifierID, len(ids))
	copy(sorted, ids)
	slices.Sort(sorted)
	w := 0
	for r := 0; r < len(sorted); r++ {
		if w == 0 || sorted[r] != sorted[w-1] {
			sorted[w] = sorted[r]
			w++
		}
	}
	sorted = sorted[:w]
	var cost float64
	for _, id := range sorted {
		cost += inst.Cost(id)
	}
	return &Solution{Selected: sorted, Cost: cost}
}

// Has reports whether classifier id is part of the solution.
func (s *Solution) Has(id ClassifierID) bool {
	i := sort.Search(len(s.Selected), func(i int) bool { return s.Selected[i] >= id })
	return i < len(s.Selected) && s.Selected[i] == id
}

// Covered reports, per query, whether the selected classifiers cover it. A
// query q is covered iff the union of selected classifiers that are subsets
// of q equals q (Section 2.1; monotonicity makes restricting to subsets of q
// sufficient).
func (inst *Instance) Covered(selected []ClassifierID) []bool {
	in := make([]bool, inst.NumClassifiers())
	for _, id := range selected {
		in[id] = true
	}
	out := make([]bool, inst.NumQueries())
	for qi := range out {
		var union uint64
		full := inst.FullMask(qi)
		for _, qc := range inst.queryCls[qi] {
			if in[qc.ID] {
				union |= qc.Mask
				if union == full {
					break
				}
			}
		}
		out[qi] = union == full
	}
	return out
}

// CoversQuery reports whether the selected classifiers cover query qi.
func (inst *Instance) CoversQuery(qi int, selected map[ClassifierID]bool) bool {
	var union uint64
	full := inst.FullMask(qi)
	for _, qc := range inst.queryCls[qi] {
		if selected[qc.ID] {
			union |= qc.Mask
			if union == full {
				return true
			}
		}
	}
	return union == full
}

// SolutionCost sums the costs of the given classifier IDs (without
// deduplication; callers pass canonical sets).
func (inst *Instance) SolutionCost(ids []ClassifierID) float64 {
	var c float64
	for _, id := range ids {
		c += inst.Cost(id)
	}
	return c
}

// Verify checks that sol is a feasible solution for inst: every classifier ID
// is valid, the recorded cost matches the selected set, and every query is
// covered. It returns nil iff the solution is valid.
func (inst *Instance) Verify(sol *Solution) error {
	if sol == nil {
		return fmt.Errorf("core: nil solution")
	}
	for i, id := range sol.Selected {
		if id < 0 || int(id) >= inst.NumClassifiers() {
			return fmt.Errorf("core: solution contains invalid classifier ID %d", id)
		}
		if i > 0 && sol.Selected[i-1] >= id {
			return fmt.Errorf("core: solution IDs not sorted/unique at index %d", i)
		}
	}
	want := inst.SolutionCost(sol.Selected)
	if math.Abs(want-sol.Cost) > costTolerance(want) {
		return fmt.Errorf("core: solution cost %v does not match selected-set cost %v", sol.Cost, want)
	}
	covered := inst.Covered(sol.Selected)
	for qi, ok := range covered {
		if !ok {
			return fmt.Errorf("core: query %d (%v) is not covered", qi, inst.Query(qi))
		}
	}
	return nil
}

// costTolerance returns the absolute tolerance used when comparing summed
// costs: exact for the integer costs used throughout the paper's datasets,
// forgiving of float accumulation order otherwise.
func costTolerance(ref float64) float64 {
	t := 1e-9 * math.Abs(ref)
	if t < 1e-9 {
		t = 1e-9
	}
	return t
}
