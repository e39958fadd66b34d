package incr

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/solver"
)

// sqCost prices every classifier at its cardinality squared (singletons 1,
// pairs 4, triples 9), so covering a query with singletons is strictly
// cheaper than one conjunction classifier and expected optima are unique.
type sqCost struct{}

func (sqCost) Cost(s core.PropSet) float64 { return float64(s.Len() * s.Len()) }

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Costs == nil {
		cfg.Costs = sqCost{}
	}
	if cfg.Options.Prep == 0 && cfg.Options.WSC == 0 {
		cfg.Options = solver.DefaultOptions()
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

func mustApply(t *testing.T, e *Engine, deltas ...Delta) *Result {
	t.Helper()
	res, err := e.Apply(context.Background(), deltas)
	if err != nil {
		t.Fatalf("Apply(%v): %v", deltas, err)
	}
	return res
}

func TestEngineEmptyLoad(t *testing.T) {
	e := newTestEngine(t, Config{})
	res := mustApply(t, e)
	if res.Cost != 0 || res.Components != 0 {
		t.Fatalf("empty load: got cost %v, %d components", res.Cost, res.Components)
	}
	sol, err := e.Solution()
	if err != nil {
		t.Fatalf("Solution: %v", err)
	}
	if sol.Cost != 0 || len(sol.Classifiers) != 0 {
		t.Fatalf("empty solution: %+v", sol)
	}
}

func TestEngineAddRemoveRoundTrip(t *testing.T) {
	e := newTestEngine(t, Config{})
	res := mustApply(t, e, Add("a", "b"), Add("c"))
	if res.Components != 2 {
		t.Fatalf("want 2 components, got %d", res.Components)
	}
	// Query {a,b} is covered by singletons {a}+{b} (1+1), cheaper than the
	// pair classifier (4); query {c} needs classifier {c} (1).
	if res.Cost != 3 {
		t.Fatalf("want cost 3, got %v", res.Cost)
	}
	res = mustApply(t, e, Remove("a", "b"), Remove("c"))
	if res.Cost != 0 || res.Components != 0 {
		t.Fatalf("after removing all: cost %v, %d components", res.Cost, res.Components)
	}
	if got := e.MaxQueryLen(); got != 0 {
		t.Fatalf("empty load MaxQueryLen = %d", got)
	}
}

func TestEngineDuplicateQueryCounts(t *testing.T) {
	e := newTestEngine(t, Config{})
	mustApply(t, e, Add("a"), Add("a"), Add("a"))
	if st := e.Stats(); st.Queries != 1 {
		t.Fatalf("want 1 distinct query, got %d", st.Queries)
	}
	// Two removals leave one occurrence: the solution must not change.
	res := mustApply(t, e, Remove("a"), Remove("a"))
	if res.Cost != 1 || res.Dirty != 0 {
		t.Fatalf("multiplicity decrement re-solved: %+v", res)
	}
	res = mustApply(t, e, Remove("a"))
	if res.Cost != 0 {
		t.Fatalf("final removal: cost %v", res.Cost)
	}
}

func TestEngineMergeAndSplit(t *testing.T) {
	e := newTestEngine(t, Config{})
	res := mustApply(t, e, Add("a", "b"), Add("c", "d"))
	if res.Components != 2 || res.Merged != 0 {
		t.Fatalf("setup: %+v", res)
	}
	// {b,c} bridges the two components.
	res = mustApply(t, e, Add("b", "c"))
	if res.Components != 1 || res.Merged != 1 {
		t.Fatalf("merge: %+v", res)
	}
	// Removing the bridge splits it back.
	res = mustApply(t, e, Remove("b", "c"))
	if res.Components != 2 || res.Split != 1 {
		t.Fatalf("split: %+v", res)
	}
}

// TestEngineFreedPropertyJoinsUntilSplitCheck removes the only query
// holding a property and, in the same batch, adds a query through that
// property and another component's. Until the batch's split check, the
// freed property still maps to the component the removed query left: the
// new query merges the two components, and the check splits the merged
// one. The parts are numbered in the order of their earliest queries.
func TestEngineFreedPropertyJoinsUntilSplitCheck(t *testing.T) {
	e := newTestEngine(t, Config{})
	mustApply(t, e, Add("a", "b"), Add("b", "c"), Add("e", "f"))
	res := mustApply(t, e, Remove("a", "b"), Add("a", "e"))
	if res.Merged != 1 || res.Split != 1 || res.Components != 2 || res.Dirty != 2 {
		t.Fatalf("merged %d, split %d, components %d, dirty %d; want 1, 1, 2, 2",
			res.Merged, res.Split, res.Components, res.Dirty)
	}
	checkPartition(t, e, map[int][]string{3: {"b|c"}, 4: {"a|e", "e|f"}})

	// Once a split check has run, a property freed before it maps nowhere:
	// a later query through it joins only the components of its other
	// properties.
	mustApply(t, e, Remove("a", "e"))
	res = mustApply(t, e, Add("a", "b"))
	if res.Merged != 0 || res.Split != 0 || res.Components != 2 {
		t.Fatalf("after the check: merged %d, split %d, components %d; want 0, 0, 2",
			res.Merged, res.Split, res.Components)
	}
	checkPartition(t, e, map[int][]string{3: {"a|b", "b|c"}, 4: {"e|f"}})
}

// checkPartition compares e's components, each as its sorted query names
// by component id, with want.
func checkPartition(t *testing.T, e *Engine, want map[int][]string) {
	t.Helper()
	got := make(map[int][]string)
	for id, comp := range e.comps {
		for _, qe := range comp.queries {
			got[id] = append(got[id], strings.Join(e.u.SetNames(qe.set), "|"))
		}
		sort.Strings(got[id])
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("components %v, want %v", got, want)
	}
}

func TestEngineDirtyLocality(t *testing.T) {
	e := newTestEngine(t, Config{})
	mustApply(t, e, Add("a", "b"), Add("c", "d"), Add("e", "f"))
	// Touching one component must not re-solve the other two.
	res := mustApply(t, e, Add("a", "b2"))
	if res.Dirty != 1 || res.Reused != 2 {
		t.Fatalf("locality: dirty %d, reused %d", res.Dirty, res.Reused)
	}
}

func TestEngineUpdateCost(t *testing.T) {
	e := newTestEngine(t, Config{})
	mustApply(t, e, Add("a", "b"))
	// Make both singletons expensive; the pair classifier (cost 4) wins.
	res := mustApply(t, e, UpdateCost(10, "a"), UpdateCost(10, "b"))
	if res.Cost != 4 {
		t.Fatalf("after re-pricing singletons: cost %v, want 4", res.Cost)
	}
	// Re-pricing a classifier spanning two components touches neither.
	mustApply(t, e, Add("z"))
	res = mustApply(t, e, UpdateCost(5, "a", "z"))
	if res.Dirty != 0 {
		t.Fatalf("cross-component classifier re-price dirtied %d components", res.Dirty)
	}
}

func TestEngineGateFlipDirtiesAll(t *testing.T) {
	e := newTestEngine(t, Config{})
	mustApply(t, e, Add("a", "b"), Add("c", "d"))
	// A length-3 query flips the global k ≤ 2 gate: every component must
	// re-solve, including the untouched {a,b} one.
	res := mustApply(t, e, Add("x", "y", "z"))
	if res.Dirty != 3 || res.Reused != 0 {
		t.Fatalf("gate flip up: dirty %d, reused %d", res.Dirty, res.Reused)
	}
	// And back down.
	res = mustApply(t, e, Remove("x", "y", "z"))
	if res.Reused != 0 {
		t.Fatalf("gate flip down: reused %d, want 0", res.Reused)
	}
}

func TestEngineBatchValidationIsAtomic(t *testing.T) {
	e := newTestEngine(t, Config{})
	mustApply(t, e, Add("a"))
	before := e.Stats()
	// Valid add followed by an invalid remove: nothing may change.
	_, err := e.Apply(context.Background(), []Delta{Add("b"), Remove("nope")})
	if err == nil || !strings.Contains(err.Error(), "absent query") {
		t.Fatalf("want absent-query error, got %v", err)
	}
	if after := e.Stats(); after.Queries != before.Queries {
		t.Fatalf("failed batch mutated the load: %d -> %d queries", before.Queries, after.Queries)
	}
	// Relative counting: a remove is valid when a preceding add in the same
	// batch supplies the occurrence, and invalid when the batch net count
	// goes negative.
	mustApply(t, e, Add("b"), Remove("b"))
	if _, err := e.Apply(context.Background(), []Delta{Add("c"), Remove("c"), Remove("c")}); err == nil {
		t.Fatal("net-negative remove accepted")
	}
}

// TestEngineValidationErrors checks that each kind of invalid batch is
// rejected with its error and changes nothing: not the load, not the
// counters, and not the universe, even when the batch names properties the
// universe has never seen.
func TestEngineValidationErrors(t *testing.T) {
	e := newTestEngine(t, Config{})
	ctx := context.Background()
	mustApply(t, e, Add("a", "b"))
	size, stats := e.Universe().Size(), e.Stats()
	for _, tc := range []struct {
		name   string
		deltas []Delta
		want   string
	}{
		{"no props", []Delta{Add("new1"), {Op: OpAdd}}, "no properties"},
		{"empty prop", []Delta{Add("new2", "")}, "empty property"},
		{"neg cost", []Delta{UpdateCost(-1, "new3", "new4")}, "invalid cost"},
		{"nan cost", []Delta{Add("new5"), UpdateCost(math.NaN(), "new6")}, "invalid cost"},
		{"too long", []Delta{Add(manyProps(core.MaxEnumQueryLen + 1)...)}, "enumeration limit"},
		{"remove of unknown names", []Delta{Remove("ghost1", "ghost2")}, "absent query"},
		{"remove of a known and an unknown name", []Delta{Remove("a", "ghost")}, "absent query"},
		{"add, then remove twice", []Delta{Add("new7"), Remove("new7"), Remove("new7")}, "absent query"},
		{"unknown op", []Delta{Add("new8"), {Op: Op(9), Props: []string{"new9"}}}, "unknown op"},
	} {
		_, err := e.Apply(ctx, tc.deltas)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
		if got := e.Universe().Size(); got != size {
			t.Errorf("%s: universe grew from %d to %d names", tc.name, size, got)
		}
		if got := e.Stats(); got != stats {
			t.Errorf("%s: stats changed from %+v to %+v", tc.name, stats, got)
		}
	}
	// An accepted batch interns its new names in order of first appearance.
	mustApply(t, e, UpdateCost(3, "x", "y"), Add("z", "x"))
	for i, name := range []string{"x", "y", "z"} {
		if id, ok := e.Universe().Lookup(name); !ok || int(id) != size+i {
			t.Errorf("%s interned as %d (%v), want %d", name, id, ok, size+i)
		}
	}
}

func manyProps(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = strings.Repeat("p", i+1)
	}
	return out
}

func TestEngineKTwoRejectsLongQueries(t *testing.T) {
	e := newTestEngine(t, Config{Algo: AlgoKTwo})
	if _, err := e.Apply(context.Background(), []Delta{Add("a", "b", "c")}); err == nil {
		t.Fatal("ktwo engine accepted a length-3 query")
	}
	// +Inf cost is allowed (makes the classifier unavailable).
	mustApply(t, e, Remove("a", "b", "c"), UpdateCost(math.Inf(1), "a"))
}

func TestEngineRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil Costs accepted")
	}
	if _, err := New(Config{Costs: sqCost{}, Algo: "short-first"}); err == nil {
		t.Fatal("unsupported algo accepted")
	}
}

func TestEngineSolutionDiff(t *testing.T) {
	e := newTestEngine(t, Config{})
	res := mustApply(t, e, Add("a", "b"))
	if len(res.Added) != 2 {
		t.Fatalf("initial add: %+v", res.Added)
	}
	// Re-pricing flips the picks from the two singletons to the pair: one
	// added, two removed.
	res = mustApply(t, e, UpdateCost(10, "a"), UpdateCost(10, "b"))
	if len(res.Added) != 1 || len(res.Removed) != 2 {
		t.Fatalf("re-price diff: added %v removed %v", res.Added, res.Removed)
	}
	if got := res.Added[0]; len(got) != 2 {
		t.Fatalf("want the pair classifier, got %v", got)
	}
}

func TestEngineCacheReuse(t *testing.T) {
	// Singletons at 3 and pairs at 4: the pair classifier is not dominated
	// (Step 3 keeps it), so the component survives preprocessing and
	// reaches the residual solver — and therefore the cache.
	cm := core.CostFunc(func(s core.PropSet) float64 { return float64(2 + s.Len()) })
	e := newTestEngine(t, Config{Costs: cm})
	mustApply(t, e, Add("a", "b"))
	mustApply(t, e, Remove("a", "b"))
	// The same component shape re-solves from the cache.
	mustApply(t, e, Add("a", "b"))
	if st := e.CacheStats(); st.Hits == 0 {
		t.Fatalf("want a cache hit on the re-added component, got %+v", st)
	}
}

func TestEngineMetricsAndStats(t *testing.T) {
	e := newTestEngine(t, Config{})
	mustApply(t, e, Add("a"), Add("b", "c"))
	st := e.Stats()
	if st.Applies != 1 || st.Deltas != 2 || st.Components != 2 || st.Dirtied != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestOverlayCostNoAlloc gates the session cost model's hot path: pricing a
// classifier allocates nothing, with and without cost overrides, over a
// base model that is a function or a price table (what /load builds). An
// override wins over the base, and a later one over an earlier one. A
// table base takes overrides in place and is itself the engine's cost
// model; a function base is priced through the overlay. A set the
// overrides lack, such as one that differs from an overridden set in one
// member, gets the base's price, and a set the base table lacks its
// default.
func TestOverlayCostNoAlloc(t *testing.T) {
	u := core.NewUniverse()
	for i := 0; i < 14; i++ {
		u.Intern(fmt.Sprintf("p%d", i))
	}
	hit, near, miss := core.NewPropSet(3, 7, 12), core.NewPropSet(3, 7, 13), core.NewPropSet(4, 8)
	newTable := func() *core.PriceTable {
		table := core.NewPriceTable(6, 2, 6)
		table.Put(hit, 5)
		table.Put(near, 3)
		return table
	}
	for _, tc := range []struct {
		name            string
		base            core.CostModel
		override        bool
		hit, near, miss float64 // wanted prices
	}{
		{"function, no overrides", sqCost{}, false, 9, 9, 4},
		{"function, overrides", sqCost{}, true, 2, 9, 4},
		{"table, no overrides", newTable(), false, 5, 3, 6},
		{"table, overrides", newTable(), true, 2, 3, 6},
	} {
		e := newTestEngine(t, Config{Costs: tc.base, Universe: u})
		if tc.override {
			mustApply(t, e, UpdateCost(8, u.SetNames(hit)...), UpdateCost(2, u.SetNames(hit)...))
		}
		cm := e.CostModel()
		if table, ok := tc.base.(*core.PriceTable); ok {
			if cm != core.CostModel(table) {
				t.Errorf("%s: the engine prices through %T, not the table it owns", tc.name, cm)
			}
			if want := 2; table.Len() != want {
				t.Errorf("%s: owned table holds %d sets, want %d", tc.name, table.Len(), want)
			}
		} else if _, ok := cm.(overlayCost); !ok {
			t.Errorf("%s: the engine prices through %T, want the overlay", tc.name, cm)
		}
		var sink float64
		if avg := testing.AllocsPerRun(100, func() {
			sink += cm.Cost(hit) + cm.Cost(near) + cm.Cost(miss)
		}); avg != 0 {
			t.Errorf("%s: pricing allocates %.1f times per three prices, want 0", tc.name, avg)
		}
		for _, c := range []struct {
			s    core.PropSet
			want float64
		}{{hit, tc.hit}, {near, tc.near}, {miss, tc.miss}} {
			if got := cm.Cost(c.s); got != c.want {
				t.Errorf("%s: price of %v = %v, want %v", tc.name, c.s, got, c.want)
			}
		}
		_ = sink
	}
}

// TestSplitNumberingIsDeterministic replays one splitting batch on fresh
// engines: the parts must get the same component ids every time, numbered
// in the order of their earliest-inserted queries.
func TestSplitNumberingIsDeterministic(t *testing.T) {
	var want map[int][]string
	for run := 0; run < 20; run++ {
		e := newTestEngine(t, Config{})
		var load []Delta
		for i := 0; i < 8; i++ {
			leaf := fmt.Sprintf("leaf%d", i)
			load = append(load, Add(leaf, leaf+"x"), Add(leaf, "hub"))
		}
		mustApply(t, e, load...)
		var cut []Delta
		for i := 0; i < 8; i++ {
			cut = append(cut, Remove(fmt.Sprintf("leaf%d", i), "hub"))
		}
		if res := mustApply(t, e, cut...); res.Split != 7 {
			t.Fatalf("split into %d extra parts, want 7", res.Split)
		}
		got := make(map[int][]string)
		first := make(map[int]int64)
		for id, comp := range e.comps {
			for _, qe := range comp.queries {
				got[id] = append(got[id], strings.Join(e.u.SetNames(qe.set), "|"))
				if s, ok := first[id]; !ok || qe.seq < s {
					first[id] = qe.seq
				}
			}
			sort.Strings(got[id])
		}
		ids := make([]int, 0, len(first))
		for id := range first {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for i := 1; i < len(ids); i++ {
			if first[ids[i-1]] > first[ids[i]] {
				t.Fatalf("component %d holds a query inserted after component %d's first", ids[i-1], ids[i])
			}
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: components %v, first run %v", run, got, want)
		}
	}
}
