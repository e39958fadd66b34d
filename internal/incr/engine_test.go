package incr

import (
	"context"
	"math"
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

func TestEngineValidationErrors(t *testing.T) {
	e := newTestEngine(t, Config{})
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		deltas []Delta
		want   string
	}{
		{"no props", []Delta{{Op: OpAdd}}, "no properties"},
		{"empty prop", []Delta{Add("a", "")}, "empty property"},
		{"neg cost", []Delta{UpdateCost(-1, "a")}, "invalid cost"},
		{"nan cost", []Delta{UpdateCost(math.NaN(), "a")}, "invalid cost"},
		{"too long", []Delta{Add(manyProps(core.MaxEnumQueryLen + 1)...)}, "enumeration limit"},
	} {
		_, err := e.Apply(ctx, tc.deltas)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
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
// override wins over the base; a set the overrides lack, such as one that
// differs from an overridden set in one member, gets the base's price, and
// a set the base table lacks its default.
func TestOverlayCostNoAlloc(t *testing.T) {
	hit, near, miss := core.NewPropSet(3, 7, 12), core.NewPropSet(3, 7, 13), core.NewPropSet(4, 8)
	table := core.NewPriceTable(6, 2, 6)
	table.Put(hit, 5)
	table.Put(near, 3)
	withHit := new(core.PriceTable)
	withHit.Put(hit, 2)
	for _, tc := range []struct {
		name            string
		base            core.CostModel
		over            *core.PriceTable
		hit, near, miss float64 // wanted prices
	}{
		{"function, no overrides", sqCost{}, new(core.PriceTable), 9, 9, 4},
		{"function, overrides", sqCost{}, withHit, 2, 9, 4},
		{"table, no overrides", table, new(core.PriceTable), 5, 3, 6},
		{"table, overrides", table, withHit, 2, 3, 6},
	} {
		cm := overlayCost{base: tc.base, over: tc.over}
		var sink float64
		if avg := testing.AllocsPerRun(100, func() {
			sink += cm.Cost(hit) + cm.Cost(near) + cm.Cost(miss)
		}); avg != 0 {
			t.Errorf("%s: overlayCost.Cost allocates %.1f times per three prices, want 0", tc.name, avg)
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
