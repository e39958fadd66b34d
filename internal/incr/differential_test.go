package incr

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/solver"
	"repro/internal/textio"
	"repro/internal/workload"
)

// checkDifferential asserts the engine's incremental solution cost equals a
// from-scratch solve of the materialized load under the same solver options
// (no cache, whole-load ambient), and that the incremental classifier
// selection is a valid cover. The from-scratch load is priced by costs,
// which the caller keeps apart from the engine's own cost model.
func checkDifferential(t *testing.T, e *Engine, costs core.CostModel, algo string, opts solver.Options) {
	t.Helper()
	got, err := e.Solution()
	if err != nil {
		t.Fatalf("Solution: %v", err)
	}
	qs := e.QuerySets()
	if len(qs) == 0 {
		if got.Cost != 0 || len(got.Classifiers) != 0 {
			t.Fatalf("empty load has solution %+v", got)
		}
		return
	}
	inst, err := core.NewInstance(e.Universe(), qs, costs, core.Options{})
	if err != nil {
		t.Fatalf("from-scratch instance: %v", err)
	}
	fn := solver.General
	if algo == AlgoKTwo || (algo == AlgoAuto && inst.MaxQueryLen() <= 2) {
		fn = solver.KTwo
	}
	opts.Cache = nil
	opts.AmbientQueryLen = 0
	want, err := fn(inst, opts)
	if err != nil {
		t.Fatalf("from-scratch solve: %v", err)
	}
	// Costs are integer-valued in every workload model, so float sums are
	// exact and the incremental total must match bit for bit.
	if got.Cost != want.Cost {
		t.Fatalf("differential mismatch: incremental cost %v, from-scratch cost %v (%d queries, maxlen %d)",
			got.Cost, want.Cost, inst.NumQueries(), inst.MaxQueryLen())
	}
	// The incremental selection must itself be a valid cover of the load.
	ids := make([]core.ClassifierID, 0, len(got.Classifiers))
	for _, names := range got.Classifiers {
		id, ok := inst.ClassifierIDOf(e.Universe().Set(names...))
		if !ok {
			t.Fatalf("incremental pick %v is not a classifier of the load", names)
		}
		ids = append(ids, id)
	}
	if err := inst.Verify(core.NewSolution(inst, ids)); err != nil {
		t.Fatalf("incremental selection invalid: %v", err)
	}
}

// refDiff is the hash version of diffLocked, kept as the reference: it keys
// every old and every new pick by its PropSet.Key string, so it needs no
// store IDs and no compaction can change what it matches.
func refDiff(u *core.Universe, oldPicks, newPicks []core.PropSet) (added, removed [][]string) {
	oldKeys := make(map[string]core.PropSet, len(oldPicks))
	for _, p := range oldPicks {
		oldKeys[p.Key()] = p
	}
	for _, p := range newPicks {
		k := p.Key()
		if _, ok := oldKeys[k]; ok {
			delete(oldKeys, k)
			continue
		}
		added = append(added, u.SetNames(p))
	}
	for _, p := range oldKeys {
		removed = append(removed, u.SetNames(p))
	}
	sortNameSets(added)
	sortNameSets(removed)
	return added, removed
}

// solutionPicks returns the engine's current picks as sets of its universe.
func solutionPicks(t *testing.T, e *Engine) []core.PropSet {
	t.Helper()
	sol, err := e.Solution()
	if err != nil {
		t.Fatalf("Solution: %v", err)
	}
	picks := make([]core.PropSet, len(sol.Classifiers))
	for i, names := range sol.Classifiers {
		picks[i] = e.Universe().Set(names...)
	}
	return picks
}

// checkDiff requires an Apply's Added and Removed to equal the reference
// diff of the solutions before and after it. Components are property
// disjoint, so a pick of a component the batch left alone can equal no
// re-solved pick, and the whole-solution diff is the diff of the re-solved
// components.
func checkDiff(t *testing.T, e *Engine, before []core.PropSet, res *Result) {
	t.Helper()
	added, removed := refDiff(e.Universe(), before, solutionPicks(t, e))
	if !reflect.DeepEqual(res.Added, added) || !reflect.DeepEqual(res.Removed, removed) {
		t.Fatalf("Apply reported added %v, removed %v; the reference diff is added %v, removed %v",
			res.Added, res.Removed, added, removed)
	}
}

// refCosts prices a set of the engine's universe u by name: the cost a
// test's own record of cost deltas holds for it, or else the dataset's
// price. It is the reference the engine's re-pricing is checked against.
type refCosts struct {
	u         *core.Universe
	ds        *workload.Dataset
	overrides map[string]float64 // textio.CostKey of the names → latest cost
}

func (r refCosts) Cost(s core.PropSet) float64 {
	names := r.u.SetNames(s)
	if c, ok := r.overrides[textio.CostKey(names)]; ok {
		return c
	}
	ids := make([]core.PropID, len(names))
	for i, name := range names {
		id, ok := r.ds.Universe.Lookup(name)
		if !ok {
			panic("refCosts: " + name + " is not a property of the dataset")
		}
		ids[i] = id
	}
	return r.ds.Costs.Cost(core.NewPropSet(ids...))
}

// runDifferential drives engines with a randomized delta sequence drawn
// from the dataset's query pool, checking incremental-vs-from-scratch
// equality after every Apply. It runs the sequence twice: over the
// dataset's cost function, which the engine overlays with its cost deltas,
// and over a price table that textio.File.CostModelFor builds from the
// pool's priced classifiers, as /load does, which the engine owns and
// writes its cost deltas into.
func runDifferential(t *testing.T, ds *workload.Dataset, pool []core.PropSet, algo string, seed int64, steps int) {
	t.Helper()
	t.Run(algo+"/function", func(t *testing.T) {
		runDifferentialOn(t, ds, pool, ds.Costs, ds.Universe, algo, seed, steps)
	})
	t.Run(algo+"/price-table", func(t *testing.T) {
		inst, err := core.NewInstance(ds.Universe, pool, ds.Costs, core.Options{})
		if err != nil {
			t.Fatalf("pool instance: %v", err)
		}
		u := core.NewUniverse()
		costs := textio.FromInstance(inst).CostModelFor(u)
		if _, ok := costs.(*core.PriceTable); !ok {
			t.Fatalf("CostModelFor built a %T, want a price table", costs)
		}
		runDifferentialOn(t, ds, pool, costs, u, algo, seed, steps)
	})
}

func runDifferentialOn(t *testing.T, ds *workload.Dataset, pool []core.PropSet, costs core.CostModel, u *core.Universe, algo string, seed int64, steps int) {
	t.Helper()
	opts := solver.DefaultOptions()
	e, err := New(Config{Costs: costs, Universe: u, Algo: algo, Options: opts})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	ref := refCosts{u: u, ds: ds, overrides: make(map[string]float64)}

	names := func(s core.PropSet) []string { return ds.Universe.SetNames(s) }
	var live []core.PropSet

	// Seed the load with the first half of the pool in one batch.
	var init []Delta
	for _, q := range pool[:len(pool)/2] {
		init = append(init, Add(names(q)...))
		live = append(live, q)
	}
	res, err := e.Apply(ctx, init)
	if err != nil {
		t.Fatalf("initial load: %v", err)
	}
	checkDiff(t, e, nil, res)
	checkDifferential(t, e, ref, algo, opts)

	next := len(pool) / 2
	for step := 0; step < steps; step++ {
		batch := make([]Delta, 0, 4)
		for n := rng.Intn(4) + 1; n > 0; n-- {
			switch r := rng.Float64(); {
			case r < 0.45 && next < len(pool):
				batch = append(batch, Add(names(pool[next])...))
				live = append(live, pool[next])
				next++
			case r < 0.60 && len(live) > 0:
				// Re-add an occurrence of a live query (duplicate).
				q := live[rng.Intn(len(live))]
				batch = append(batch, Add(names(q)...))
				live = append(live, q)
			case r < 0.85 && len(live) > 0:
				i := rng.Intn(len(live))
				batch = append(batch, Remove(names(live[i])...))
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			case len(live) > 0:
				// Re-price a random sub-classifier of a live query.
				q := live[rng.Intn(len(live))]
				k := rng.Intn(q.Len()) + 1
				sub := make([]string, 0, k)
				for _, j := range rng.Perm(q.Len())[:k] {
					sub = append(sub, ds.Universe.Name(q[j]))
				}
				d := UpdateCost(float64(rng.Intn(60)+1), sub...)
				batch = append(batch, d)
				ref.overrides[textio.CostKey(sub)] = d.Cost
			}
		}
		if len(batch) == 0 {
			continue
		}
		before := solutionPicks(t, e)
		res, err := e.Apply(ctx, batch)
		if err != nil {
			t.Fatalf("step %d Apply(%v): %v", step, batch, err)
		}
		checkDiff(t, e, before, res)
		checkDifferential(t, e, ref, algo, opts)
	}

	// Drain the load completely, checking the whole way down.
	for len(live) > 0 {
		batch := make([]Delta, 0, 8)
		for n := 8; n > 0 && len(live) > 0; n-- {
			i := rng.Intn(len(live))
			batch = append(batch, Remove(names(live[i])...))
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		before := solutionPicks(t, e)
		res, err := e.Apply(ctx, batch)
		if err != nil {
			t.Fatalf("drain Apply: %v", err)
		}
		checkDiff(t, e, before, res)
		checkDifferential(t, e, ref, algo, opts)
	}
}

func subsetPool(t *testing.T, ds *workload.Dataset, m int, seed int64) []core.PropSet {
	t.Helper()
	qs, err := ds.SubsetQueries(m, seed)
	if err != nil {
		t.Fatalf("SubsetQueries: %v", err)
	}
	return qs
}

func TestDifferentialSynthetic(t *testing.T) {
	ds := workload.Synthetic(60, 7)
	runDifferential(t, ds, ds.Queries, AlgoAuto, 101, 25)
}

func TestDifferentialSyntheticShort(t *testing.T) {
	ds := workload.SyntheticShort(80, 11)
	// Auto dispatches to Algorithm 2 here; also force Algorithm 3 so the
	// general path is exercised on a k ≤ 2 load.
	runDifferential(t, ds, ds.Queries, AlgoAuto, 103, 25)
	runDifferential(t, ds, ds.Queries, AlgoGeneral, 107, 15)
}

func TestDifferentialBestBuy(t *testing.T) {
	ds := workload.BestBuy(3)
	runDifferential(t, ds, subsetPool(t, ds, 80, 9), AlgoAuto, 109, 25)
}

func TestDifferentialPrivate(t *testing.T) {
	ds := workload.Private(5)
	runDifferential(t, ds, subsetPool(t, ds, 80, 13), AlgoAuto, 113, 25)
}

// TestDiffMatchesMapReference compares diffLocked with the map reference on
// random pick lists drawn from a small pool of the store's classifiers, so
// old picks repeat, new picks repeat, and the two lists overlap.
func TestDiffMatchesMapReference(t *testing.T) {
	u := core.NewUniverse()
	e, err := New(Config{Costs: core.UniformCost(1), Universe: u})
	if err != nil {
		t.Fatal(err)
	}
	var sets []core.PropSet
	var handles []int32
	for i := 0; i < 12; i++ {
		names := []string{"p" + string(rune('a'+i))}
		if i%3 != 0 {
			names = append(names, "q"+string(rune('a'+i/2)))
		}
		set := u.Set(names...)
		h, err := e.enum.Add(set)
		if err != nil {
			t.Fatal(err)
		}
		sets, handles = append(sets, set), append(handles, h)
	}
	inst, sids, err := e.enum.Assemble(handles)
	if err != nil {
		t.Fatal(err)
	}
	pool := make([]int32, len(sets))
	for i, set := range sets {
		id, _ := inst.ClassifierIDOf(set)
		pool[i] = sids[id]
	}
	rng := rand.New(rand.NewSource(31))
	draw := func() ([]int32, []core.PropSet) {
		ids, picks := make([]int32, rng.Intn(10)), []core.PropSet(nil)
		for i := range ids {
			ids[i] = pool[rng.Intn(len(pool))]
			picks = append(picks, e.enum.Classifier(ids[i]))
		}
		return ids, picks
	}
	for trial := 0; trial < 500; trial++ {
		oldIDs, oldPicks := draw()
		newIDs, newPicks := draw()
		added, removed := e.diffLocked(oldIDs, newIDs)
		wantAdded, wantRemoved := refDiff(u, oldPicks, newPicks)
		if !reflect.DeepEqual(added, wantAdded) || !reflect.DeepEqual(removed, wantRemoved) {
			t.Fatalf("trial %d: old %v new %v: added %v removed %v, reference added %v removed %v",
				trial, oldPicks, newPicks, added, removed, wantAdded, wantRemoved)
		}
	}
}
