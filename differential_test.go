package mc3

// Differential testing: one randomized sweep driving every public solver on
// the same instances and checking the full web of cross-algorithm
// invariants in one place. The per-package tests verify each algorithm in
// isolation; this file verifies they agree with each other.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/solver"
	"repro/internal/workload"
)

// randomInstanceForDiff builds a small random instance over ≤7 properties
// with occasional unavailable conjunctions.
func randomInstanceForDiff(rng *rand.Rand) *Instance {
	u := NewUniverse()
	names := []string{"a", "b", "c", "d", "e", "f", "g"}
	nq := 1 + rng.Intn(6)
	var queries []PropSet
	for i := 0; i < nq; i++ {
		qLen := 1 + rng.Intn(4)
		perm := rng.Perm(len(names))[:qLen]
		var qn []string
		for _, p := range perm {
			qn = append(qn, names[p])
		}
		queries = append(queries, u.Set(qn...))
	}
	seed := rng.Int63()
	cm := CostFunc(func(s PropSet) float64 {
		h := seed ^ int64(len(s))
		for _, id := range s {
			h = (h*2654435761 + int64(id)) & 0x7fffffff
		}
		if s.Len() > 1 && h%7 == 0 {
			return math.Inf(1)
		}
		return float64(1 + h%20)
	})
	inst, err := NewInstance(u, queries, cm, InstanceOptions{})
	if err != nil {
		return nil
	}
	return inst
}

func TestDifferentialSolverWeb(t *testing.T) {
	rng := rand.New(rand.NewSource(20260706))
	feasible := 0
	for trial := 0; trial < 250; trial++ {
		inst := randomInstanceForDiff(rng)
		if inst == nil || inst.NumClassifiers() > 40 {
			continue
		}

		exact, exactErr := SolveExact(inst, DefaultSolveOptions())
		if exactErr != nil {
			// Infeasible: every solver must refuse too.
			for name, fn := range map[string]SolverFunc{
				"general": SolveGeneral, "portfolio": SolvePortfolio, "local-greedy": LocalGreedy,
			} {
				if _, err := fn(inst, DefaultSolveOptions()); err == nil {
					t.Fatalf("trial %d: %s accepted an infeasible instance", trial, name)
				}
			}
			continue
		}
		feasible++

		opts := DefaultSolveOptions()
		opts.Validate = true

		results := map[string]*Solution{}
		for name, fn := range map[string]SolverFunc{
			"general":      SolveGeneral,
			"short-first":  SolveShortFirst,
			"portfolio":    SolvePortfolio,
			"local-greedy": LocalGreedy,
		} {
			sol, err := fn(inst, opts)
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, name, err)
			}
			if err := inst.Verify(sol); err != nil {
				t.Fatalf("trial %d: %s produced invalid solution: %v", trial, name, err)
			}
			results[name] = sol
		}

		// (1) Nothing beats the exact optimum.
		for name, sol := range results {
			if sol.Cost < exact.Cost-1e-9 {
				t.Fatalf("trial %d: %s (%v) beats the exact optimum (%v)", trial, name, sol.Cost, exact.Cost)
			}
		}
		// (2) Portfolio ≤ each of its members.
		for _, name := range []string{"general", "short-first", "local-greedy"} {
			if results["portfolio"].Cost > results[name].Cost+1e-9 {
				t.Fatalf("trial %d: portfolio (%v) worse than %s (%v)",
					trial, results["portfolio"].Cost, name, results[name].Cost)
			}
		}
		// (3) The exact algorithm dispatches through Solve for k ≤ 2.
		if inst.MaxQueryLen() <= 2 {
			sol, err := Solve(inst, opts)
			if err != nil {
				t.Fatalf("trial %d: Solve: %v", trial, err)
			}
			if math.Abs(sol.Cost-exact.Cost) > 1e-9 {
				t.Fatalf("trial %d: Solve (k≤2) = %v, optimum %v", trial, sol.Cost, exact.Cost)
			}
		}
		// (4) The certified LP lower bound is sound and not vacuous.
		bound, err := solver.LPLowerBound(inst, DefaultSolveOptions())
		if err != nil {
			t.Fatalf("trial %d: LPLowerBound: %v", trial, err)
		}
		if bound > exact.Cost+1e-6 {
			t.Fatalf("trial %d: bound %v exceeds optimum %v", trial, bound, exact.Cost)
		}
		p := Analyze(inst)
		if f := float64(p.Frequency); f >= 1 && exact.Cost > f*bound+1e-6 {
			t.Fatalf("trial %d: optimum %v exceeds f×bound = %v×%v", trial, exact.Cost, f, bound)
		}
		// (5) Budgeted at the exact cost covers everything; at 0 covers
		// only free queries.
		weights := make([]float64, inst.NumQueries())
		for i := range weights {
			weights[i] = 1
		}
		bsol, err := SolveBudgeted(inst, weights, exact.Cost, opts)
		if err != nil {
			t.Fatalf("trial %d: SolveBudgeted: %v", trial, err)
		}
		if bsol.Cost > exact.Cost+1e-9 {
			t.Fatalf("trial %d: budgeted overspent: %v > %v", trial, bsol.Cost, exact.Cost)
		}
		// The greedy heuristic may not reach full coverage at exactly the
		// optimal budget, but it must never claim more weight than exists.
		if bsol.CoveredWeight > float64(inst.NumQueries())+1e-9 {
			t.Fatalf("trial %d: covered weight %v exceeds query count", trial, bsol.CoveredWeight)
		}
		// (6) Explanations exist for every valid solution.
		if _, err := solver.Explain(inst, results["general"]); err != nil {
			t.Fatalf("trial %d: Explain: %v", trial, err)
		}
	}
	if feasible < 100 {
		t.Fatalf("too few feasible instances exercised: %d", feasible)
	}
}

func TestDifferentialParallelismInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(777777))
	for trial := 0; trial < 40; trial++ {
		inst := randomInstanceForDiff(rng)
		if inst == nil {
			continue
		}
		serial := DefaultSolveOptions()
		par := DefaultSolveOptions()
		par.Parallelism = 4
		s1, err1 := SolveGeneral(inst, serial)
		s2, err2 := SolveGeneral(inst, par)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: feasibility disagreement", trial)
		}
		if err1 != nil {
			continue
		}
		if s1.Cost != s2.Cost || len(s1.Selected) != len(s2.Selected) {
			t.Fatalf("trial %d: parallelism changed the solution (%v vs %v)", trial, s1.Cost, s2.Cost)
		}
	}
}

// TestDifferentialParallelismInvarianceIncremental drives a serial and a
// parallel incremental engine with identical delta batches over each workload
// generator and demands exact cost equality after every Apply — the
// parallel re-solve dispatch must be invisible in the results. Costs are
// integer-valued in all workload models, so float sums are exact and the
// comparison is bit-for-bit.
func TestDifferentialParallelismInvarianceIncremental(t *testing.T) {
	pools := []struct {
		name string
		ds   *workload.Dataset
		m    int
	}{
		{"synthetic", workload.Synthetic(60, 7), 0},
		{"bestbuy", workload.BestBuy(3), 60},
		{"private", workload.Private(5), 60},
	}
	for _, tc := range pools {
		t.Run(tc.name, func(t *testing.T) {
			pool := tc.ds.Queries
			if tc.m > 0 {
				var err error
				pool, err = tc.ds.SubsetQueries(tc.m, 9)
				if err != nil {
					t.Fatalf("SubsetQueries: %v", err)
				}
			}
			serialOpts := solver.DefaultOptions()
			parOpts := solver.DefaultOptions()
			parOpts.Parallelism = -1
			newEngine := func(opts solver.Options) *incr.Engine {
				e, err := incr.New(incr.Config{
					Costs: tc.ds.Costs, Universe: tc.ds.Universe, Options: opts,
				})
				if err != nil {
					t.Fatalf("incr.New: %v", err)
				}
				return e
			}
			eSerial, ePar := newEngine(serialOpts), newEngine(parOpts)

			ctx := context.Background()
			rng := rand.New(rand.NewSource(424242))
			names := func(s core.PropSet) []string { return tc.ds.Universe.SetNames(s) }
			var live []core.PropSet
			next := 0
			applyBoth := func(batch []incr.Delta) {
				t.Helper()
				r1, err1 := eSerial.Apply(ctx, batch)
				r2, err2 := ePar.Apply(ctx, batch)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("Apply disagreement: serial err %v, parallel err %v", err1, err2)
				}
				if err1 != nil {
					t.Fatalf("Apply: %v", err1)
				}
				if r1.Cost != r2.Cost {
					t.Fatalf("parallelism changed the incremental cost: serial %v, parallel %v (batch %v)",
						r1.Cost, r2.Cost, batch)
				}
				if r1.Dirty != r2.Dirty || r1.Components != r2.Components {
					t.Fatalf("parallelism changed the component accounting: serial %d dirty/%d comps, parallel %d/%d",
						r1.Dirty, r1.Components, r2.Dirty, r2.Components)
				}
			}

			// Install half the pool, then mixed batches, comparing after each.
			var init []incr.Delta
			for ; next < len(pool)/2; next++ {
				init = append(init, incr.Add(names(pool[next])...))
				live = append(live, pool[next])
			}
			applyBoth(init)
			for step := 0; step < 20; step++ {
				var batch []incr.Delta
				for n := rng.Intn(4) + 1; n > 0; n-- {
					switch r := rng.Float64(); {
					case r < 0.5 && next < len(pool):
						batch = append(batch, incr.Add(names(pool[next])...))
						live = append(live, pool[next])
						next++
					case r < 0.8 && len(live) > 0:
						i := rng.Intn(len(live))
						batch = append(batch, incr.Remove(names(live[i])...))
						live[i] = live[len(live)-1]
						live = live[:len(live)-1]
					case len(live) > 0:
						q := live[rng.Intn(len(live))]
						batch = append(batch, incr.UpdateCost(float64(rng.Intn(40)+1), names(q)...))
					}
				}
				if len(batch) == 0 {
					continue
				}
				applyBoth(batch)
			}

			s1, err1 := eSerial.Solution()
			s2, err2 := ePar.Solution()
			if err1 != nil || err2 != nil {
				t.Fatalf("Solution: serial %v, parallel %v", err1, err2)
			}
			if s1.Cost != s2.Cost || len(s1.Classifiers) != len(s2.Classifiers) {
				t.Fatalf("final solutions diverge: serial cost %v (%d picks), parallel cost %v (%d picks)",
					s1.Cost, len(s1.Classifiers), s2.Cost, len(s2.Classifiers))
			}
		})
	}
}
