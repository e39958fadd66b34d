package solver

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/prep"
)

// TestWSCReductionParameters verifies the parameter analysis of Section 5.2
// on the actual reduction output: for an instance with max query length k
// and incidence I,
//
//	n̂ (elements)  = Σ|q|           (one element per query-property pair)
//	f (frequency)  ≤ 2^{k−1}        (subsets of the query containing p)
//	Δ (degree)     ≤ (k−1)·I … but only after preprocessing removes
//	                singleton queries; the raw bound is k·I.
func TestWSCReductionParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(520))
	for trial := 0; trial < 120; trial++ {
		inst := randomGeneralInstance(rng, 7, 8)
		r, err := prep.Run(inst, prep.Minimal)
		if err != nil {
			continue
		}
		if len(r.Components) == 0 {
			continue
		}
		sc, setIDs := wscOf(r, r.Components[0])
		if sc.NumElements() == 0 {
			continue
		}

		// Element count: Σ over residual queries of uncovered properties.
		wantElems := 0
		for _, qi := range r.ResidualQueries() {
			full := inst.FullMask(qi)
			covered := r.CoveredMask[qi]
			for m := full &^ covered; m != 0; m &= m - 1 {
				wantElems++
			}
		}
		if sc.NumElements() != wantElems {
			t.Fatalf("trial %d: elements = %d, want %d", trial, sc.NumElements(), wantElems)
		}

		k := inst.MaxQueryLen()
		p := core.Analyze(inst)

		if f := sc.Frequency(); float64(f) > math.Pow(2, float64(k-1))+1e-9 {
			t.Fatalf("trial %d: frequency %d exceeds 2^{k-1} = %v", trial, f, math.Pow(2, float64(k-1)))
		}
		if d := sc.Degree(); d > k*p.Incidence {
			t.Fatalf("trial %d: degree %d exceeds k·I = %d", trial, d, k*p.Incidence)
		}

		// Every set maps to an alive classifier with matching cost.
		for s := 0; s < sc.NumSets(); s++ {
			id := setIDs[s]
			if r.Removed[id] || r.SelectedSet[id] {
				t.Fatalf("trial %d: set %d maps to a removed/selected classifier", trial, s)
			}
			if sc.Cost(s) != r.EffCost[id] {
				t.Fatalf("trial %d: set cost %v != effective cost %v", trial, sc.Cost(s), r.EffCost[id])
			}
		}
	}
}

// TestWSCReductionSolutionEquivalence: a cover of the WSC instance, mapped
// to classifiers and joined with preprocessing selections, covers the MC³
// instance — and its cost is the WSC cover cost plus preprocessing's.
func TestWSCReductionSolutionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(521))
	for trial := 0; trial < 100; trial++ {
		inst := randomGeneralInstance(rng, 6, 6)
		r, err := prep.Run(inst, prep.Full)
		if err != nil {
			continue
		}
		var picks []core.ClassifierID
		var wscCost float64
		for _, comp := range r.Components {
			sc, setIDs := wscOf(r, comp)
			if sc.NumElements() == 0 {
				continue
			}
			sets, cost, err := sc.Greedy()
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			wscCost += cost
			for _, s := range sets {
				picks = append(picks, setIDs[s])
			}
		}
		all := append(append([]core.ClassifierID(nil), r.Selected...), picks...)
		sol := core.NewSolution(inst, all)
		if err := inst.Verify(sol); err != nil {
			t.Fatalf("trial %d: mapped WSC cover does not cover MC3: %v", trial, err)
		}
		var prepCost float64
		for _, id := range r.Selected {
			prepCost += inst.Cost(id)
		}
		if math.Abs(sol.Cost-(prepCost+wscCost)) > 1e-9 {
			t.Fatalf("trial %d: solution cost %v != prep %v + WSC %v", trial, sol.Cost, prepCost, wscCost)
		}
	}
}
