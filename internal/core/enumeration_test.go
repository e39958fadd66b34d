package core

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

// countingCost prices like UniformCost(1) and counts its calls.
type countingCost struct{ calls *int }

func (c countingCost) Cost(PropSet) float64 {
	*c.calls++
	return 1
}

// TestEnumerationRetireAndCompact: a retired query comes back with its row
// and no pricing; once retired queries outnumber live ones the store
// compacts, live queries keep their handles, retired ones are freed and
// reused, and every assembly equals NewInstance of the same queries.
func TestEnumerationRetireAndCompact(t *testing.T) {
	calls := 0
	e, err := NewEnumeration(NewUniverse(), countingCost{&calls}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	qs := distinctQueries(6)
	hs := make([]int32, len(qs))
	for i, q := range qs {
		if hs[i], err = e.Add(q); err != nil {
			t.Fatal(err)
		}
	}
	assembleMatches := func(what string, handles []int32) {
		t.Helper()
		assembleMatchesNewInstance(t, what, e, handles, UniformCost(1))
	}

	e.Remove(hs[1])
	e.Remove(hs[2])
	if e.Compact() != nil {
		t.Fatal("the store compacted with two retired queries against four live")
	}
	priced := calls
	if h, _ := e.Add(qs[1]); h != hs[1] || calls != priced {
		t.Fatalf("re-adding a retired query: handle %d (want %d), %d pricing calls", h, hs[1], calls-priced)
	}
	if _, _, err := e.Assemble([]int32{hs[2]}); err == nil {
		t.Fatal("Assemble took a retired handle")
	}
	assembleMatches("retired", []int32{hs[3], hs[1], hs[0], hs[1]})

	// The third removal leaves four retired against two live, and the store
	// compacts, renumbering the classifiers it keeps in their old order.
	for _, i := range []int{1, 3, 5} {
		e.Remove(hs[i])
	}
	before := make([]PropSet, len(e.costs))
	for v := range before {
		before[v] = e.Classifier(int32(v))
	}
	remap := e.Compact()
	if e.nDead != 0 || len(e.free) != 4 || len(e.costs) != 14 {
		t.Fatalf("after compaction: %d retired, %d free handles, %d classifiers; want 0, 4, 14", e.nDead, len(e.free), len(e.costs))
	}
	kept, last := 0, int32(0)
	for v, k := range remap {
		if k == 0 {
			continue
		}
		if kept++; k <= last || !e.Classifier(k-1).Equal(before[v]) {
			t.Fatalf("compaction renumbered classifier %d %v as %d", v, before[v], k-1)
		}
		last = k
	}
	if kept != len(e.costs) {
		t.Fatalf("the renumbering keeps %d classifiers, the store %d", kept, len(e.costs))
	}
	assembleMatches("compacted", []int32{hs[4], hs[0]})
	if !e.SetCost(qs[0], 5) || e.SetCost(qs[1], 5) {
		t.Fatal("SetCost does not report what the compacted store holds")
	}
	fresh := NewPropSet(100, 101)
	h, err := e.Add(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if h != hs[5] {
		t.Fatalf("a new query got handle %d, want the last freed handle %d", h, hs[5])
	}
	back, _ := e.Add(qs[1])
	if !e.queries[back].Equal(qs[1]) {
		t.Fatalf("re-added query has handle %d holding %v", back, e.queries[back])
	}
	assembleMatches("refilled", []int32{hs[0], back, hs[4], h})
}

// TestAssembleAllocs gates assembly's allocation budget: a constant number
// of flat arrays, however many queries and classifiers it assembles. A run
// may also refill the scratch pool (the garbage collector empties it, and
// the race detector drops pooled items at random), which costs up to four
// allocations.
func TestAssembleAllocs(t *testing.T) {
	e, err := NewEnumeration(NewUniverse(), UniformCost(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var hs []int32
	for _, q := range distinctQueries(400) {
		h, err := e.Add(q)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	count := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, _, err := e.Assemble(hs[:n]); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := count(10), count(400); many > few+4 {
		t.Errorf("Assemble allocates %.1f times for 10 queries and %.1f for 400, want no growth", few, many)
	}
}

// TestAssembleRejectsInvalidCost: a price the cost model gets wrong fails
// the instances that hold the subset, with NewInstance's error, and no
// other.
func TestAssembleRejectsInvalidCost(t *testing.T) {
	bad := NewPropSet(1, 2)
	cm := CostFunc(func(s PropSet) float64 {
		if s.Equal(bad) {
			return math.NaN()
		}
		return 1
	})
	e, err := NewEnumeration(NewUniverse(), cm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hBad, _ := e.Add(NewPropSet(1, 2, 3))
	hOK, _ := e.Add(NewPropSet(4, 5))
	if _, _, err := e.Assemble([]int32{hOK, hBad}); err == nil {
		t.Fatal("Assemble accepted a NaN price")
	}
	if _, _, err := e.Assemble([]int32{hOK}); err != nil {
		t.Fatalf("Assemble of a query without the bad subset: %v", err)
	}
	if _, err := NewInstance(NewUniverse(), []PropSet{NewPropSet(1, 2, 3)}, cm, Options{}); err == nil {
		t.Fatal("NewInstance accepted a NaN price")
	}
}

// assembleMatchesNewInstance assembles handles from e and requires the
// instance NewInstance builds from the same queries priced by cm.
func assembleMatchesNewInstance(t *testing.T, what string, e *Enumeration, handles []int32, cm CostModel) {
	t.Helper()
	inst, sids, err := e.Assemble(handles)
	if err != nil {
		t.Fatalf("%s: Assemble: %v", what, err)
	}
	if len(sids) != inst.NumClassifiers() {
		t.Fatalf("%s: %d store IDs for %d classifiers", what, len(sids), inst.NumClassifiers())
	}
	for id, v := range sids {
		if !e.Classifier(v).Equal(inst.Classifier(ClassifierID(id))) {
			t.Fatalf("%s: classifier %d is %v, its store classifier %d is %v", what, id, inst.Classifier(ClassifierID(id)), v, e.Classifier(v))
		}
	}
	qs := make([]PropSet, len(handles))
	for i, h := range handles {
		qs[i] = e.queries[h]
	}
	want, err := NewInstance(inst.Universe, qs, cm, Options{KeepDuplicateQueries: true})
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumClassifiers() != want.NumClassifiers() {
		t.Fatalf("%s: %d classifiers, NewInstance has %d", what, inst.NumClassifiers(), want.NumClassifiers())
	}
	for qi := range qs {
		got, exp := inst.QueryClassifiers(qi), want.QueryClassifiers(qi)
		for i := range exp {
			if got[i] != exp[i] || !inst.Classifier(got[i].ID).Equal(want.Classifier(exp[i].ID)) {
				t.Fatalf("%s: query %d row %v, NewInstance %v", what, qi, got, exp)
			}
		}
	}
}

// TestDroppedStoreCollected: a store nothing references is freed by the
// next collection after it assembled an instance. Assemble's scratch pool
// must not hold the store: the runtime keeps every used pool on a list
// until the second collection after its last use.
func TestDroppedStoreCollected(t *testing.T) {
	collected := make(chan struct{})
	func() {
		e, err := NewEnumeration(NewUniverse(), UniformCost(1), Options{})
		if err != nil {
			t.Fatal(err)
		}
		var hs []int32
		for _, q := range distinctQueries(20) {
			h, err := e.Add(q)
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, h)
		}
		if _, _, err := e.Assemble(hs); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(e, func(*Enumeration) { close(collected) })
	}()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(time.Second):
		t.Fatal("a dropped store outlived a collection")
	}
}

// TestClassifierIDOfConcurrentFirstUse looks up every classifier of fresh
// instances from several goroutines at once, so they race to build the
// index. Run it under -race; every goroutine must find every classifier.
// Then, since every store draws Assemble's scratch from one pool, an
// Assemble that fails midway on one store, at a retired handle or at a NaN
// price, must leave nothing behind for the next Assemble on another store.
func TestClassifierIDOfConcurrentFirstUse(t *testing.T) {
	qs := append(distinctQueries(30), NewPropSet(0, 3, 6), NewPropSet(1, 4))
	for round := 0; round < 4; round++ {
		inst, err := NewInstance(NewUniverse(), qs, UniformCost(1), Options{})
		if err != nil {
			t.Fatal(err)
		}
		m := inst.NumClassifiers()
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < m; i++ {
					id := ClassifierID((i + 13*g) % m)
					if got, ok := inst.ClassifierIDOf(inst.Classifier(id)); !ok || got != id {
						t.Errorf("round %d goroutine %d: ClassifierIDOf(%v) = %d, %v; want %d, true", round, g, inst.Classifier(id), got, ok, id)
						return
					}
				}
				if id, ok := inst.ClassifierIDOf(NewPropSet(0, 4)); ok {
					t.Errorf("round %d goroutine %d: ClassifierIDOf found %d for a set no query holds", round, g, id)
				}
			}(g)
		}
		wg.Wait()
	}

	bad := NewPropSet(101, 102)
	cm := CostFunc(func(s PropSet) float64 {
		if s.Equal(bad) {
			return math.NaN()
		}
		return 1
	})
	failing, err := NewEnumeration(NewUniverse(), cm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h0, _ := failing.Add(NewPropSet(0, 1, 2))
	h1, _ := failing.Add(NewPropSet(2, 3))
	retired, _ := failing.Add(NewPropSet(7, 8))
	hBad, _ := failing.Add(NewPropSet(101, 102, 103))
	failing.Remove(retired)
	if _, _, err := failing.Assemble([]int32{h0, h1, retired}); err == nil {
		t.Fatal("Assemble took a retired handle")
	}
	if _, _, err := failing.Assemble([]int32{h1, h0, hBad}); err == nil {
		t.Fatal("Assemble accepted a NaN price")
	}
	other, err := NewEnumeration(NewUniverse(), cm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var hs []int32
	for _, q := range qs[:6] {
		h, err := other.Add(q)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	assembleMatchesNewInstance(t, "after failed assemblies", other, []int32{hs[2], hs[0], hs[1], hs[5], hs[3], hs[0]}, cm)
}
