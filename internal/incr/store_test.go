package incr

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/solver"
	"repro/internal/textio"
)

// Every session below assembles its dirty components on parallel workers,
// from the one C_Q store the session keeps, and is checked against a
// from-scratch solve after every batch.

// storeOptions are the solver defaults with parallel component solves.
func storeOptions() solver.Options {
	opts := solver.DefaultOptions()
	opts.Parallelism = -1
	return opts
}

// overrides prices a set at the latest cost a test's deltas gave it, and
// otherwise as base does: the reference the engine's re-pricing is checked
// against.
type overrides struct {
	u    *core.Universe
	base core.CostModel
	cost map[string]float64 // textio.CostKey of the names → latest cost
}

func (o overrides) Cost(s core.PropSet) float64 {
	if c, ok := o.cost[textio.CostKey(o.u.SetNames(s))]; ok {
		return c
	}
	return o.base.Cost(s)
}

// session drives one engine and checks it after every batch.
type session struct {
	t    *testing.T
	e    *Engine
	ref  overrides
	algo string
	opts solver.Options
}

func newSession(t *testing.T, costs, refBase core.CostModel, u *core.Universe) *session {
	t.Helper()
	opts := storeOptions()
	e, err := New(Config{Costs: costs, Universe: u, Options: opts})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return &session{t: t, e: e, ref: overrides{u: u, base: refBase, cost: map[string]float64{}}, algo: AlgoAuto, opts: opts}
}

// apply applies one batch, records its cost deltas in the reference, checks
// the engine against a from-scratch solve and returns the session's cost.
func (s *session) apply(deltas ...Delta) float64 {
	s.t.Helper()
	return s.result(deltas...).Cost
}

// applyDiffed is apply that also requires the batch's Added and Removed to
// equal the reference diff of the solutions before and after it.
func (s *session) applyDiffed(deltas ...Delta) {
	s.t.Helper()
	before := solutionPicks(s.t, s.e)
	checkDiff(s.t, s.e, before, s.result(deltas...))
}

// result is apply returning the batch's Result.
func (s *session) result(deltas ...Delta) *Result {
	s.t.Helper()
	res, err := s.e.Apply(context.Background(), deltas)
	if err != nil {
		s.t.Fatalf("Apply(%v): %v", deltas, err)
	}
	for _, d := range deltas {
		if d.Op == OpUpdateCost {
			s.ref.cost[textio.CostKey(d.Props)] = d.Cost
		}
	}
	checkDifferential(s.t, s.e, s.ref, s.algo, s.opts)
	return res
}

// TestStoreUnpricedSubsets runs a session over a price table without a
// default, so the store holds +Inf subsets in its rows: a re-price makes
// one available, and the session's cover takes it, and a later re-price
// makes it +Inf again.
func TestStoreUnpricedSubsets(t *testing.T) {
	// Every singleton costs 5 and only the pairs {a,c} and {c,d} are priced;
	// {a,b} and every triple are unavailable.
	prices := func(u *core.Universe) *core.PriceTable {
		table := core.NewPriceTable(math.Inf(1), 0, 0)
		for _, name := range []string{"a", "b", "c", "d", "e"} {
			table.Put(u.Set(name), 5)
		}
		table.Put(u.Set("a", "c"), 6)
		table.Put(u.Set("c", "d"), 6)
		return table
	}
	u := core.NewUniverse()
	s := newSession(t, prices(u), prices(u), u)
	if got := s.apply(Add("a", "b"), Add("a", "b", "c"), Add("d", "e")); got != 25 {
		t.Fatalf("load: cost %v, want 25 (five singletons)", got)
	}
	if got := s.apply(UpdateCost(2, "a", "b")); got != 17 {
		t.Fatalf("after pricing {a,b}: cost %v, want 17 ({a,b}, {c}, {d}, {e})", got)
	}
	s.apply(Add("b", "c"), UpdateCost(1, "a", "b", "c"))
	if got := s.apply(UpdateCost(math.Inf(1), "a", "b"), Remove("b", "c")); got != 21 {
		t.Fatalf("after making {a,b} unavailable: cost %v, want 21 ({a,b,c}, {a}, {b}, {d}, {e})", got)
	}
	s.apply(UpdateCost(math.Inf(1), "a", "b", "c"))
}

// TestStoreRepriceRemovedQuery re-prices a classifier that only a removed
// query held, whose row the store keeps, and then adds the query back: the
// row it takes back must carry the new price. The same runs over a
// function base, priced through the overlay.
func TestStoreRepriceRemovedQuery(t *testing.T) {
	for _, tc := range []struct {
		name  string
		costs func(*core.Universe) core.CostModel
	}{
		{"price-table", func(u *core.Universe) core.CostModel {
			table := core.NewPriceTable(math.Inf(1), 0, 0)
			for _, names := range [][]string{{"a"}, {"b"}, {"c"}, {"a", "b"}} {
				table.Put(u.Set(names...), float64(len(names)*len(names)))
			}
			return table
		}},
		{"function", func(*core.Universe) core.CostModel { return sqCost{} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u := core.NewUniverse()
			s := newSession(t, tc.costs(u), tc.costs(u), u)
			s.apply(Add("a", "b"), Add("c"))
			s.apply(Remove("a", "b"))
			s.apply(UpdateCost(1, "a", "b"))
			if got := s.apply(Add("a", "b")); got != 2 {
				t.Fatalf("re-added {a,b}: cost %v, want 2 ({a,b} at its new price 1, {c})", got)
			}
			s.apply(Remove("a", "b"), UpdateCost(math.Inf(1), "a"), UpdateCost(7, "a", "b"))
			if got := s.apply(Add("a", "b")); got != 8 {
				t.Fatalf("re-added {a,b} again: cost %v, want 8", got)
			}
		})
	}
}

// TestStoreCompactionChurn adds and removes enough queries that the store
// compacts several times: a batch compacts it whenever its retired queries
// outnumber its live ones, and each removal wave below retires more than
// half of the load. Later batches add removed queries back, add new ones
// into the freed handles and re-price across the waves. Every batch's
// Added and Removed must equal the reference diff, which matches picks by
// set and so does not see the store renumber them.
func TestStoreCompactionChurn(t *testing.T) {
	u := core.NewUniverse()
	s := newSession(t, sqCost{}, sqCost{}, u)
	query := func(i int) []string {
		return []string{fmt.Sprintf("p%d", i%7), fmt.Sprintf("q%d", i%11), fmt.Sprintf("r%d", i)}
	}
	var live []int
	for wave := 0; wave < 4; wave++ {
		var adds []Delta
		for i := wave * 10; i < wave*10+24; i++ {
			if !slices.Contains(live, i) {
				adds = append(adds, Add(query(i)...))
				live = append(live, i)
			}
		}
		s.applyDiffed(adds...)
		s.applyDiffed(UpdateCost(1, query(wave * 10)[:2]...), UpdateCost(math.Inf(1), query(wave*10 + 1)[2]))
		kept := live[:0]
		for _, i := range live {
			if i%4 == 0 {
				kept = append(kept, i)
				continue
			}
			s.applyDiffed(Remove(query(i)...))
		}
		live = kept
	}
	for _, i := range live {
		s.applyDiffed(Remove(query(i)...))
	}
}

// instanceAnswers is what an instance answers for its classifiers and
// queries.
type instanceAnswers struct {
	classifiers [][]core.PropID
	costs       []float64
	queryCls    [][]core.QueryClassifier
	clsQueries  [][]int32
	ids         []core.ClassifierID
}

func answers(inst *core.Instance) instanceAnswers {
	var a instanceAnswers
	for id := 0; id < inst.NumClassifiers(); id++ {
		cid := core.ClassifierID(id)
		set := inst.Classifier(cid)
		a.classifiers = append(a.classifiers, append([]core.PropID(nil), set...))
		a.costs = append(a.costs, inst.Cost(cid))
		a.clsQueries = append(a.clsQueries, append([]int32(nil), inst.ClassifierQueries(cid)...))
		got, _ := inst.ClassifierIDOf(set)
		a.ids = append(a.ids, got)
	}
	for qi := 0; qi < inst.NumQueries(); qi++ {
		a.queryCls = append(a.queryCls, append([]core.QueryClassifier(nil), inst.QueryClassifiers(qi)...))
	}
	return a
}

// TestStoreInstanceStable assembles a component's instance after one batch
// and checks that it answers the same after later batches grow the store,
// re-price the classifiers it holds and compact the store.
func TestStoreInstanceStable(t *testing.T) {
	u := core.NewUniverse()
	s := newSession(t, sqCost{}, sqCost{}, u)
	var load []Delta
	for i := 0; i < 12; i++ {
		load = append(load, Add("hub", fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i%3)))
	}
	s.apply(load...)
	if len(s.e.comps) != 1 {
		t.Fatalf("load has %d components, want 1", len(s.e.comps))
	}
	var handles []int32
	for _, comp := range s.e.comps {
		for _, qe := range comp.queries {
			handles = append(handles, qe.h)
		}
	}
	inst, _, err := s.e.enum.Assemble(handles)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	want := answers(inst)

	check := func(after string) {
		t.Helper()
		if got := answers(inst); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %s the instance answers %+v, want %+v", after, got, want)
		}
	}
	// Growth: enough new queries that the store reallocates its arrays.
	var grow []Delta
	for i := 0; i < 200; i++ {
		grow = append(grow, Add(fmt.Sprintf("g%d", i), fmt.Sprintf("h%d", i), fmt.Sprintf("k%d", i%5), fmt.Sprintf("m%d", i)))
	}
	s.apply(grow...)
	check("growth")
	// Re-pricing: every classifier the instance holds, both ways.
	for id := 0; id < inst.NumClassifiers(); id++ {
		names := u.SetNames(inst.Classifier(core.ClassifierID(id)))
		s.apply(UpdateCost(float64(id%3), names...))
	}
	s.apply(UpdateCost(math.Inf(1), "hub", "x0"))
	check("re-pricing")
	// Compaction: retire more queries than stay live, among them the
	// instance's own.
	var rm []Delta
	for i := 0; i < 12; i++ {
		rm = append(rm, Remove("hub", fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i%3)))
	}
	for i := 0; i < 150; i++ {
		rm = append(rm, Remove(fmt.Sprintf("g%d", i), fmt.Sprintf("h%d", i), fmt.Sprintf("k%d", i%5), fmt.Sprintf("m%d", i)))
	}
	s.apply(rm...)
	check("compaction")
	s.apply(load...)
	check("the instance's queries came back")
}
