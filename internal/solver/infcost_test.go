package solver

import (
	"context"
	"math"
	"testing"

	"repro/internal/prep"
)

// TestBuildWSCFiltersNonFiniteCosts poisons a preprocessed result's working
// cost vector and checks buildWSC drops the classifier rather than feeding a
// +Inf/NaN weight into the set-cover engines.
func TestBuildWSCFiltersNonFiniteCosts(t *testing.T) {
	u, inst := buildInstance(t,
		[][]string{{"a", "b", "c"}},
		map[string]float64{"a": 1, "b": 1, "c": 1, "a|b": 2, "b|c": 2, "a|b|c": 9})
	r, err := prep.Run(inst, prep.Minimal)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Components) != 1 {
		t.Fatalf("expected 1 component, got %d", len(r.Components))
	}
	abID, ok := inst.ClassifierIDOf(u.Set("a", "b"))
	if !ok {
		t.Fatal("classifier ab missing")
	}
	bcID, ok := inst.ClassifierIDOf(u.Set("b", "c"))
	if !ok {
		t.Fatal("classifier bc missing")
	}
	r.EffCost[abID] = math.Inf(1)
	r.EffCost[bcID] = math.NaN()

	sc, setIDs := wscOf(r, r.Components[0])
	for _, id := range setIDs {
		if id == abID || id == bcID {
			t.Errorf("non-finite-cost classifier %d became a WSC set", id)
		}
	}
	// The surviving sets must still cover the component.
	sets, cost, _, err := runWSC(context.Background(), sc, WSCAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) == 0 || math.IsInf(cost, 0) || math.IsNaN(cost) {
		t.Errorf("cover after filtering: sets=%v cost=%v", sets, cost)
	}
}

// TestSolveWithInfCostClassifiersEndToEnd prices most classifiers at +Inf
// (buildInstance's cost-table default) and checks the full solve paths still
// return a finite solution that never selects an unusable classifier.
func TestSolveWithInfCostClassifiersEndToEnd(t *testing.T) {
	// Only singletons and one pair are purchasable; every other classifier
	// (including all full-query ones) costs +Inf.
	_, inst := buildInstance(t,
		[][]string{{"a", "b", "c"}, {"b", "c", "d"}, {"a", "d"}},
		map[string]float64{"a": 2, "b": 3, "c": 4, "d": 5, "b|c": 6})
	// query-oriented is excluded: it requires full-query classifiers, which
	// this instance deliberately prices at +Inf.
	solvers := map[string]Func{
		"mc3-general":       General,
		"short-first":       ShortFirst,
		"local-greedy":      LocalGreedy,
		"property-oriented": PropertyOriented,
		"portfolio":         Portfolio,
	}
	for name, fn := range solvers {
		opts := DefaultOptions()
		opts.Validate = true
		sol, err := fn(inst, opts)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if math.IsInf(sol.Cost, 0) || math.IsNaN(sol.Cost) {
			t.Errorf("%s: non-finite solution cost %v", name, sol.Cost)
		}
	}
	if _, err := Exact(inst, DefaultOptions()); err != nil {
		t.Errorf("Exact: %v", err)
	}
}
