package mc3

// Presentation invariance: a solve depends on the load — the query set and
// the cost model — and not on the order the load presents its queries in.
// Every residual component is solved in its canonical order
// (internal/cache), so shuffled query orders, a cache filled under another
// order, an incremental session fed in another insertion order and a stream
// fed in another arrival order must all give the same cost and the same
// classifiers.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/hardness"
	"repro/internal/incr"
	"repro/internal/prep"
	"repro/internal/solver"
	"repro/internal/workload"
)

// orderLoad is one load of the invariance test: queries interned in one
// universe, and their cost model.
type orderLoad struct {
	name    string
	u       *core.Universe
	queries []core.PropSet
	costs   core.CostModel
}

// orderLoads returns the three workload families and both hardness
// reductions. Every query is interned before any shuffle, so shuffling
// changes the query order and nothing else.
func orderLoads(t *testing.T) []orderLoad {
	t.Helper()
	var loads []orderLoad
	for _, d := range []struct {
		name string
		ds   *workload.Dataset
	}{
		{"private-1", workload.Private(1)},
		{"private-7", workload.Private(7)},
		{"bestbuy", workload.BestBuy(1)},
		{"synthetic", workload.Synthetic(3000, 1)},
		{"synthetic-short", workload.SyntheticShort(2000, 1)},
	} {
		loads = append(loads, orderLoad{d.name, d.ds.Universe, d.ds.Queries, d.ds.Costs})
	}
	rng := rand.New(rand.NewSource(51))
	setCover := func(nElems, nSets int) *hardness.SetCover {
		sc := &hardness.SetCover{NumElements: nElems, Sets: make([][]int, nSets)}
		for e := 0; e < nElems; e++ {
			for _, si := range rng.Perm(nSets)[:2+rng.Intn(3)] {
				sc.Sets[si] = append(sc.Sets[si], e)
			}
		}
		return sc
	}
	r51, err := hardness.BuildTheorem51(setCover(40, 12))
	if err != nil {
		t.Fatal(err)
	}
	r52, err := hardness.BuildTheorem52(setCover(14, 20))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []struct {
		name string
		inst *core.Instance
	}{{"hardness/thm5.1", r51.Inst}, {"hardness/thm5.2", r52.Inst}} {
		loads = append(loads, orderLoad{h.name, h.inst.Universe, h.inst.Queries(), instanceCosts(h.inst)})
	}
	return loads
}

// instanceCosts prices a set as inst does: its classifier's cost, or +Inf
// for a set that is not a classifier of inst.
func instanceCosts(inst *core.Instance) core.CostModel {
	return core.CostFunc(func(s core.PropSet) float64 {
		if id, ok := inst.ClassifierIDOf(s); ok {
			return inst.Cost(id)
		}
		return math.Inf(1)
	})
}

// shuffled returns the load's queries in the order of shuffle s.
func (l orderLoad) shuffled(s int) []core.PropSet {
	qs := slices.Clone(l.queries)
	rand.New(rand.NewSource(int64(s))).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

func (l orderLoad) instance(t *testing.T, queries []core.PropSet) *core.Instance {
	t.Helper()
	inst, err := core.NewInstance(l.u, queries, l.costs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// outcome is a solve's cost and its classifiers as sorted property-set keys.
type outcome struct {
	cost float64
	sets []string
}

func keysOf(sets []core.PropSet) []string {
	keys := make([]string, len(sets))
	for i, s := range sets {
		keys[i] = s.Key()
	}
	slices.Sort(keys)
	return keys
}

func solutionOutcome(inst *core.Instance, sol *core.Solution) outcome {
	sets := make([]core.PropSet, len(sol.Selected))
	for i, id := range sol.Selected {
		sets[i] = inst.Classifier(id)
	}
	return outcome{sol.Cost, keysOf(sets)}
}

func (o outcome) check(t *testing.T, what string, want outcome) {
	t.Helper()
	if o.cost != want.cost || !slices.Equal(o.sets, want.sets) {
		t.Errorf("%s: cost %v with %d classifiers, want cost %v with %d classifiers (selection equal: %v)",
			what, o.cost, len(o.sets), want.cost, len(want.sets), slices.Equal(o.sets, want.sets))
	}
}

// orderSolvers are the entry points checked on every load.
var orderSolvers = []struct {
	name string
	fn   solver.Func
}{{"general", solver.General}, {"auto", solver.Auto}}

func solveOutcome(t *testing.T, inst *core.Instance, fn solver.Func, c *cache.Cache) outcome {
	t.Helper()
	opts := solver.DefaultOptions()
	opts.Cache = c
	sol, err := fn(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	return solutionOutcome(inst, sol)
}

// prepOutcome returns preprocessing's selections and removals as sorted
// property-set keys.
func prepOutcome(t *testing.T, inst *core.Instance) (selected, removed []string) {
	t.Helper()
	r, err := prep.Run(inst, solver.DefaultOptions().Prep)
	if err != nil {
		t.Fatal(err)
	}
	var sel, rem []core.PropSet
	for _, id := range r.Selected {
		sel = append(sel, inst.Classifier(id))
	}
	for id, gone := range r.Removed {
		if gone {
			rem = append(rem, inst.Classifier(core.ClassifierID(id)))
		}
	}
	return keysOf(sel), keysOf(rem)
}

func TestComponentOrderInvariance(t *testing.T) {
	const shuffles = 8
	for _, l := range orderLoads(t) {
		t.Run(l.name, func(t *testing.T) {
			base := l.instance(t, l.queries)
			want := map[string]outcome{}
			for _, s := range orderSolvers {
				want[s.name] = solveOutcome(t, base, s.fn, nil)
			}
			wantSel, wantRem := prepOutcome(t, base)

			// Every shuffled order solves as the original does, and through
			// a cache that the earlier orders filled it solves as its own
			// uncached solve does.
			t.Run("shuffles", func(t *testing.T) {
				caches := make([]*cache.Cache, len(orderSolvers))
				for i, s := range orderSolvers {
					caches[i] = cache.New(cache.Config{})
					solveOutcome(t, base, s.fn, caches[i])
				}
				for sh := 1; sh <= shuffles; sh++ {
					inst := l.instance(t, l.shuffled(sh))
					for i, s := range orderSolvers {
						plain := solveOutcome(t, inst, s.fn, nil)
						plain.check(t, fmt.Sprintf("shuffle %d, %s", sh, s.name), want[s.name])
						solveOutcome(t, inst, s.fn, caches[i]).check(t,
							fmt.Sprintf("shuffle %d through a cache filled by earlier orders, %s", sh, s.name), plain)
					}
					sel, rem := prepOutcome(t, inst)
					if !slices.Equal(sel, wantSel) || !slices.Equal(rem, wantRem) {
						t.Errorf("shuffle %d: preprocessing selected %d and removed %d classifiers, want %d and %d (sets equal: %v, %v)",
							sh, len(sel), len(rem), len(wantSel), len(wantRem), slices.Equal(sel, wantSel), slices.Equal(rem, wantRem))
					}
				}
			})

			t.Run("incr", func(t *testing.T) {
				e, err := incr.New(incr.Config{Costs: l.costs, Universe: l.u, Options: solver.DefaultOptions()})
				if err != nil {
					t.Fatal(err)
				}
				var batch []incr.Delta
				for _, q := range l.shuffled(shuffles + 1) {
					batch = append(batch, incr.Add(l.u.SetNames(q)...))
				}
				if _, err := e.Apply(context.Background(), batch); err != nil {
					t.Fatal(err)
				}
				sol, err := e.Solution()
				if err != nil {
					t.Fatal(err)
				}
				sets := make([]core.PropSet, len(sol.Classifiers))
				for i, names := range sol.Classifiers {
					sets[i] = l.u.Set(names...)
				}
				outcome{sol.Cost, keysOf(sets)}.check(t, "incremental engine", want["auto"])
			})

			t.Run("stream", func(t *testing.T) {
				queries := l.shuffled(shuffles + 2)
				res, err := solver.SolveStream(l.u, l.costs, func(add func(core.PropSet) error) error {
					for _, q := range queries {
						if err := add(q); err != nil {
							return err
						}
					}
					return nil
				}, solver.StreamConfig{}, solver.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				outcome{res.Cost, keysOf(res.Classifiers)}.check(t, "streamed solve", want["general"])
			})
		})
	}
}
