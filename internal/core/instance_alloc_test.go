package core

import (
	"math"
	"testing"
)

// allocQueries builds n copies of the same three-property query plus one
// distinct anchor query, for exercising the duplicate-shape memoization.
func allocQueries(n int) []PropSet {
	qs := make([]PropSet, 0, n+1)
	qs = append(qs, NewPropSet(100, 200))
	for i := 0; i < n; i++ {
		qs = append(qs, NewPropSet(1, 2, 3))
	}
	return qs
}

// TestSteadyStateEnumerationAllocs gates the memoized C_Q re-enumeration
// path: once a query shape has been enumerated, each repeat (under
// KeepDuplicateQueries, the serving-load shape) must cost only the
// cross-index appends — a handful of allocations, not a fresh subset walk
// with per-mask key building.
func TestSteadyStateEnumerationAllocs(t *testing.T) {
	cm := UniformCost(1)
	u := NewUniverse()
	opts := Options{KeepDuplicateQueries: true}

	build := func(n int) func() {
		qs := allocQueries(n)
		return func() {
			if _, err := NewInstance(u, qs, cm, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	base := testing.AllocsPerRun(50, build(1))
	many := testing.AllocsPerRun(50, build(101))
	perDup := (many - base) / 100
	if perDup > 4 {
		t.Errorf("steady-state re-enumeration costs %.2f allocs per duplicate query (base %.0f, 101 dups %.0f), want ≤ 4",
			perDup, base, many)
	}
}

// TestCostTableLookupNoAlloc gates the CostTable hot path: pricing a
// classifier must not allocate (the lookup key is byte-encoded into a stack
// buffer).
func TestCostTableLookupNoAlloc(t *testing.T) {
	ct := NewCostTable(math.Inf(1))
	hit := NewPropSet(3, 7, 12)
	ct.Set(hit, 2)
	miss := NewPropSet(4, 8)
	var sink float64
	if avg := testing.AllocsPerRun(100, func() {
		sink += ct.Cost(hit)
		sink += 0 * ct.Cost(miss)
	}); avg != 0 {
		t.Errorf("CostTable.Cost allocates %.1f times per pair of lookups, want 0", avg)
	}
	_ = sink
}

// TestDuplicateShapeSharing verifies the memoized path is observationally
// identical to full enumeration: duplicates report the same classifier
// lists as their first occurrence, and every cross-index accounts for every
// occurrence.
func TestDuplicateShapeSharing(t *testing.T) {
	u := NewUniverse()
	ct := NewCostTable(1)
	ct.Set(NewPropSet(2), math.Inf(1)) // one unavailable subset, exercised per shape
	qs := []PropSet{
		NewPropSet(1, 2, 3),
		NewPropSet(7, 9),
		NewPropSet(1, 2, 3),
		NewPropSet(1, 2, 3),
	}
	inst, err := NewInstance(u, qs, ct, Options{KeepDuplicateQueries: true})
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumQueries() != 4 {
		t.Fatalf("NumQueries = %d, want 4", inst.NumQueries())
	}
	first := inst.QueryClassifiers(0)
	if len(first) != 6 { // 2^3−1 subsets minus the +Inf singleton {2}
		t.Fatalf("query 0 has %d classifiers, want 6", len(first))
	}
	for _, qi := range []int{2, 3} {
		dup := inst.QueryClassifiers(qi)
		if len(dup) != len(first) {
			t.Fatalf("query %d has %d classifiers, first occurrence has %d", qi, len(dup), len(first))
		}
		for i := range dup {
			if dup[i] != first[i] {
				t.Fatalf("query %d classifier %d = %+v, first occurrence has %+v", qi, i, dup[i], first[i])
			}
		}
	}
	// Every classifier of the repeated shape must list all three occurrences.
	for _, qc := range first {
		qis := inst.ClassifierQueries(qc.ID)
		var hits int
		for _, qi := range qis {
			if qi == 0 || qi == 2 || qi == 3 {
				hits++
			}
		}
		if hits != 3 {
			t.Errorf("classifier %v lists %d of the 3 duplicate queries: %v", inst.Classifier(qc.ID), hits, qis)
		}
		if inst.Incidence(qc.ID) != hits {
			t.Errorf("classifier %v incidence %d ≠ duplicate hits %d", inst.Classifier(qc.ID), inst.Incidence(qc.ID), hits)
		}
	}
}

// distinctQueries builds n distinct three-property queries over disjoint
// properties, so every query adds seven classifiers of its own.
func distinctQueries(n int) []PropSet {
	qs := make([]PropSet, n)
	for i := range qs {
		p := PropID(3 * i)
		qs[i] = NewPropSet(p, p+1, p+2)
	}
	return qs
}

// TestClassifierArenaAllocs gates the classifier arena: on distinct
// queries NewInstance's allocation count does not grow with
// NumClassifiers, because every classifier's set is a window of one array
// rather than an allocation of its own.
func TestClassifierArenaAllocs(t *testing.T) {
	cm := UniformCost(1)
	u := NewUniverse()
	count := func(n int) (float64, int) {
		qs := distinctQueries(n)
		inst, err := NewInstance(u, qs, cm, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := NewInstance(u, qs, cm, Options{}); err != nil {
				t.Fatal(err)
			}
		}), inst.NumClassifiers()
	}
	few, fewCls := count(10)
	many, manyCls := count(400)
	if many > few {
		t.Errorf("NewInstance allocates %.0f times for %d classifiers and %.0f for %d, want no growth",
			few, fewCls, many, manyCls)
	}
}

// TestCopyClassifiers: the copies equal the instance's sets and share no
// memory with its arena, so a caller keeping them does not keep the arena
// alive.
func TestCopyClassifiers(t *testing.T) {
	inst, err := NewInstance(NewUniverse(), distinctQueries(5), UniformCost(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids := []ClassifierID{3, 0, 7, 34}
	copies := inst.CopyClassifiers(ids)
	for i, id := range ids {
		orig := inst.Classifier(id)
		if !copies[i].Equal(orig) || cap(copies[i]) != len(copies[i]) {
			t.Fatalf("copy %d of classifier %d is %v (cap %d), want %v", i, id, copies[i], cap(copies[i]), orig)
		}
		first := orig[0]
		copies[i][0]++
		if inst.Classifier(id)[0] != first {
			t.Fatalf("the copy of classifier %d shares memory with the instance", id)
		}
	}
}
