package bench

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/prep"
	"repro/internal/solver"
	"repro/internal/workload"
)

// AblationWSC compares Algorithm 3's internal set-cover engines (greedy,
// primal-dual, LP rounding, and the paper's combined form) on Private
// subsets — the "two possible effective algorithms, each suiting a different
// range" discussion of Section 5.2 made concrete.
func AblationWSC(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	d := workload.Private(cfg.Seed)
	methods := []struct {
		name   string
		method solver.WSCMethod
		maxN   int // LP rounding is dense; skip beyond this size
	}{
		{"greedy", solver.WSCGreedy, 1 << 30},
		{"primal-dual", solver.WSCPrimalDual, 1 << 30},
		{"lp-rounding", solver.WSCLPRounding, 1200},
		{"combined (Alg 3)", solver.WSCAuto, 1 << 30},
	}
	t := &Table{
		ID:     "ablation-wsc",
		Title:  "Algorithm 3 set-cover engine ablation (Private subsets)",
		XLabel: "#queries",
		Unit:   "construction cost",
		Notes:  "combined = min(greedy, primal-dual), the paper's Algorithm 3; LP rounding is simplex-backed and only run at small scale",
	}
	for _, m := range methods {
		t.Series = append(t.Series, Series{Name: m.name})
	}
	for _, n := range cfg.PSizes {
		if n > len(d.Queries) {
			n = len(d.Queries)
		}
		inst, err := d.SubsetInstance(n, cfg.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		t.XValues = append(t.XValues, fmt.Sprintf("%d", n))
		for i, m := range methods {
			if n > m.maxN {
				t.Series[i].Values = append(t.Series[i].Values, nan())
				continue
			}
			opts := cfg.SolverOptions()
			opts.WSC = m.method
			sol, err := solver.General(inst, opts)
			if err != nil {
				return nil, fmt.Errorf("bench: %s at n=%d: %w", m.name, n, err)
			}
			t.Series[i].Values = append(t.Series[i].Values, sol.Cost)
		}
	}
	return t, nil
}

// AblationEngine compares the two max-flow engines inside Algorithm 2
// (Dinic — the paper's empirical winner — versus FIFO push-relabel) on
// synthetic k = 2 loads.
func AblationEngine(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	t := &Table{
		ID:     "ablation-engine",
		Title:  "Algorithm 2 max-flow engine ablation (synthetic k=2 loads)",
		XLabel: "#queries",
		Unit:   "seconds",
		Series: []Series{{Name: "dinic"}, {Name: "push-relabel"}},
		Notes:  "paper (Section 6.1): Dinic [10] was the consistently best performer in their study",
	}
	for _, n := range cfg.SyntheticSizes {
		d := workload.SyntheticShort(n, cfg.Seed+int64(n))
		inst, err := d.Instance()
		if err != nil {
			return nil, err
		}
		t.XValues = append(t.XValues, fmt.Sprintf("%d", n))

		var costs [2]float64
		for i, engine := range []bipartite.Engine{bipartite.Dinic, bipartite.PushRelabel} {
			opts := cfg.SolverOptions()
			opts.Engine = engine
			secs, sol, err := timedRun(cfg.Repeats, func() (*core.Solution, error) { return solver.KTwo(inst, opts) })
			if err != nil {
				return nil, err
			}
			t.Series[i].Values = append(t.Series[i].Values, secs)
			costs[i] = sol.Cost
		}
		if costs[0] != costs[1] {
			return nil, fmt.Errorf("bench: engines disagree at n=%d: %v / %v", n, costs[0], costs[1])
		}
	}
	return t, nil
}

// AblationPrepSteps reports what each preprocessing step contributes on the
// paper's datasets: classifiers removed/selected per step and queries
// resolved outright.
func AblationPrepSteps(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	type entry struct {
		name string
		d    *workload.Dataset
	}
	entries := []entry{
		{"bestbuy", workload.BestBuy(cfg.Seed)},
		// Step 4 applies only to pure k = 2 instances; the BestBuy short
		// slice (uniform costs, many incidence-1 properties) is its
		// natural regime.
		{"bestbuy-short", workload.BestBuy(cfg.Seed).ShortSlice()},
		{"private", workload.Private(cfg.Seed)},
		{"synthetic", workload.Synthetic(minInt(maxInt(cfg.SyntheticSizes), 20000), cfg.Seed)},
		{"synthetic-k2", workload.SyntheticShort(minInt(maxInt(cfg.SyntheticSizes), 20000), cfg.Seed)},
	}
	t := &Table{
		ID:     "ablation-prep",
		Title:  "Preprocessing (Algorithm 1) per-step contributions",
		XLabel: "dataset",
		Series: []Series{
			{Name: "classifiers"}, {Name: "step1-selected"}, {Name: "step3-removed"},
			{Name: "step3-selected"}, {Name: "step4-removed"}, {Name: "queries-covered"}, {Name: "components"},
		},
	}
	for _, e := range entries {
		inst, err := e.d.Instance()
		if err != nil {
			return nil, err
		}
		r, err := prep.Run(inst, prep.Full)
		if err != nil {
			return nil, err
		}
		t.XValues = append(t.XValues, e.name)
		s := r.Stats
		vals := []float64{
			float64(inst.NumClassifiers()),
			float64(s.SingletonSelected + s.ZeroCostSelected),
			float64(s.Step3Removed),
			float64(s.Step3Selected),
			float64(s.Step4Removed),
			float64(s.QueriesCovered),
			float64(s.Components),
		}
		for i, v := range vals {
			t.Series[i].Values = append(t.Series[i].Values, v)
		}
	}
	return t, nil
}

// AblationLPPrep shows preprocessing's running-time effect when an actual LP
// solve is in the loop (greedy + LP rounding), at small scale: the regime in
// which the paper's ~50% time saving (Figure 3f) is most pronounced, since
// preprocessing shrinks the LP.
func AblationLPPrep(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	sizes := []int{100, 150, 200}
	t := &Table{
		ID:     "ablation-lp-prep",
		Title:  "Greedy+LP-rounding running time with/without preprocessing (synthetic)",
		XLabel: "#queries",
		Unit:   "seconds",
		Series: []Series{{Name: "with-prep"}, {Name: "without-prep"}},
		Notes:  "the LP shrinks with preprocessing; this is the regime of the paper's Figure 3f time savings",
	}
	for _, n := range sizes {
		d := workload.Synthetic(n, cfg.Seed+int64(n))
		inst, err := d.Instance()
		if err != nil {
			return nil, err
		}
		t.XValues = append(t.XValues, fmt.Sprintf("%d", n))

		for i, level := range []prep.Level{prep.Full, prep.Minimal} {
			opts := cfg.SolverOptions()
			opts.Prep = level
			opts.WSC = solver.WSCAutoLP
			secs, _, err := timedRun(cfg.Repeats, func() (*core.Solution, error) { return solver.General(inst, opts) })
			if err != nil {
				return nil, err
			}
			t.Series[i].Values = append(t.Series[i].Values, secs)
		}
	}
	return t, nil
}

// AblationBoundedK studies the bounded-classifiers variant of Section 5.3:
// restricting the classifier universe to length ≤ k' shrinks the instance
// and improves the frequency parameter (f ≤ k for k' = 2) at some cost in
// solution quality. Run on a Private subset.
func AblationBoundedK(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	d := workload.Private(cfg.Seed)
	m := minInt(maxInt(cfg.PSizes), len(d.Queries))
	queries, err := d.SubsetQueries(m, cfg.Seed)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "ablation-bounded-k",
		Title:  fmt.Sprintf("Bounded classifiers (Section 5.3) on a %d-query Private subset", m),
		XLabel: "k' (max classifier length)",
		Series: []Series{
			{Name: "classifiers"}, {Name: "frequency f"}, {Name: "degree"}, {Name: "MC3[G] cost"},
		},
		Notes: "f ≤ k for k'=2 and f ≤ 2^{k'-1} in general; smaller universes trade quality for parameters",
	}
	full := 0
	for _, q := range queries {
		if q.Len() > full {
			full = q.Len()
		}
	}
	for kPrime := 1; kPrime <= full; kPrime++ {
		inst, err := core.NewInstance(d.Universe, queries, d.Costs, core.Options{MaxClassifierLen: kPrime})
		if err != nil {
			return nil, err
		}
		sol, err := solver.General(inst, cfg.SolverOptions())
		if err != nil {
			if kPrime == 1 {
				// Some property may lack a singleton classifier; the k'=1
				// universe can be infeasible. Record and continue.
				t.XValues = append(t.XValues, fmt.Sprintf("%d (infeasible)", kPrime))
				for i := range t.Series {
					t.Series[i].Values = append(t.Series[i].Values, math.NaN())
				}
				continue
			}
			return nil, err
		}
		p := core.Analyze(inst)
		t.XValues = append(t.XValues, fmt.Sprintf("%d", kPrime))
		t.Series[0].Values = append(t.Series[0].Values, float64(p.NumClassifiers))
		t.Series[1].Values = append(t.Series[1].Values, float64(p.Frequency))
		t.Series[2].Values = append(t.Series[2].Values, float64(p.Degree))
		t.Series[3].Values = append(t.Series[3].Values, sol.Cost)
	}
	return t, nil
}

// AblationApproxRatio measures the empirical approximation ratio of
// Algorithm 3 (and the baselines) against the exact branch-and-bound
// optimum on small random instances — the guarantees of Theorem 5.3 are
// worst-case; this reports what the algorithms actually achieve.
func AblationApproxRatio(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	algos := []namedAlgo{
		{"MC3[G]", solver.General},
		{"Local-Greedy", solver.LocalGreedy},
	}
	type acc struct {
		sum, worst float64
		n          int
	}
	accs := make([]acc, len(algos))

	trials := 120
	solved := 0
	for trial := 0; trial < trials; trial++ {
		inst := smallRandomInstance(rng)
		if inst == nil || inst.NumClassifiers() > 40 {
			continue
		}
		exact, err := solver.Exact(inst, cfg.SolverOptions())
		if err != nil {
			continue
		}
		solved++
		for i, a := range algos {
			sol, err := a.fn(inst, cfg.SolverOptions())
			if err != nil {
				return nil, fmt.Errorf("bench: %s: %w", a.name, err)
			}
			ratio := 1.0
			if exact.Cost > 0 {
				ratio = sol.Cost / exact.Cost
			}
			accs[i].sum += ratio
			accs[i].n++
			if ratio > accs[i].worst {
				accs[i].worst = ratio
			}
		}
	}
	if solved == 0 {
		return nil, fmt.Errorf("bench: no feasible small instances generated")
	}

	t := &Table{
		ID:      "ablation-approx-ratio",
		Title:   fmt.Sprintf("Empirical approximation ratios vs exact optimum (%d random small instances)", solved),
		XLabel:  "algorithm",
		Unit:    "cost / optimal cost",
		Series:  []Series{{Name: "mean ratio"}, {Name: "worst ratio"}},
		Notes:   "Theorem 5.3's worst-case guarantee for Algorithm 3 is min{ln I + ln(k-1) + 1, 2^{k-1}}",
		XValues: nil,
	}
	for i, a := range algos {
		t.XValues = append(t.XValues, a.name)
		t.Series[0].Values = append(t.Series[0].Values, round4(accs[i].sum/float64(accs[i].n)))
		t.Series[1].Values = append(t.Series[1].Values, round4(accs[i].worst))
	}
	return t, nil
}

// smallRandomInstance builds a tiny random instance suitable for the exact
// oracle; returns nil when generation fails.
func smallRandomInstance(rng *rand.Rand) *core.Instance {
	u := core.NewUniverse()
	names := []string{"a", "b", "c", "d", "e", "f", "g"}
	nProps := 4 + rng.Intn(4)
	nQueries := 2 + rng.Intn(4)
	var queries []core.PropSet
	for i := 0; i < nQueries; i++ {
		qLen := 1 + rng.Intn(4)
		perm := rng.Perm(nProps)
		var qn []string
		for _, p := range perm[:minInt(qLen, nProps)] {
			qn = append(qn, names[p])
		}
		queries = append(queries, u.Set(qn...))
	}
	seed := rng.Int63()
	cm := core.CostFunc(func(s core.PropSet) float64 {
		h := seed ^ int64(len(s))
		for _, id := range s {
			h = (h*131 + int64(id)) & 0x7fffffff
		}
		if s.Len() > 1 && h%6 == 0 {
			return math.Inf(1)
		}
		return float64(1 + h%15)
	})
	inst, err := core.NewInstance(u, queries, cm, core.Options{})
	if err != nil {
		return nil
	}
	return inst
}

func round4(v float64) float64 { return math.Round(v*10000) / 10000 }

// AblationCertifiedRatio reports certified optimality gaps at realistic
// scale: per Private subset, the LP-relaxation lower bound (preprocessing's
// forced cost plus per-component covering-LP values — sound by weak duality)
// against the costs of MC³[G] and the baselines. Unlike the exact oracle,
// this scales, because preprocessing decomposes the residual into small
// components whose LPs the simplex handles easily.
func AblationCertifiedRatio(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	d := workload.Private(cfg.Seed)
	algos := []namedAlgo{
		{"MC3[G]", solver.General},
		{"Short-First", solver.ShortFirst},
		{"Local-Greedy", solver.LocalGreedy},
	}
	t := &Table{
		ID:     "ablation-certified-ratio",
		Title:  "Certified cost / LP lower bound on Private subsets",
		XLabel: "#queries",
		Unit:   "cost ÷ certified lower bound",
		Notes:  "ratios are upper bounds on the true approximation ratio (the LP bound may undershoot the optimum by up to the integrality gap)",
	}
	for _, a := range algos {
		t.Series = append(t.Series, Series{Name: a.name})
	}
	for _, n := range cfg.PSizes {
		if n > len(d.Queries) {
			n = len(d.Queries)
		}
		inst, err := d.SubsetInstance(n, cfg.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		bound, err := solver.LPLowerBound(inst, cfg.SolverOptions())
		if err != nil {
			return nil, fmt.Errorf("bench: LP bound at n=%d: %w", n, err)
		}
		if bound <= 0 {
			return nil, fmt.Errorf("bench: vacuous LP bound at n=%d", n)
		}
		t.XValues = append(t.XValues, fmt.Sprintf("%d", n))
		for i, a := range algos {
			sol, err := a.fn(inst, cfg.SolverOptions())
			if err != nil {
				return nil, fmt.Errorf("bench: %s at n=%d: %w", a.name, n, err)
			}
			if sol.Cost < bound-1e-6 {
				return nil, fmt.Errorf("bench: %s cost %v below certified bound %v — bound unsound", a.name, sol.Cost, bound)
			}
			t.Series[i].Values = append(t.Series[i].Values, round4(sol.Cost/bound))
		}
	}
	return t, nil
}

// AblationBudgeted sweeps the construction budget on a Private subset and
// reports the fraction of the query load the budgeted heuristic covers —
// the cost/coverage trade-off curve of the paper's future-work variant
// (Sections 5.3, 8). The 100% point is the full MC³[G] cover cost, so the
// curve shows how much of the load survives aggressive budget cuts.
func AblationBudgeted(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	d := workload.Private(cfg.Seed)
	m := minInt(2000, len(d.Queries))
	inst, err := d.SubsetInstance(m, cfg.Seed)
	if err != nil {
		return nil, err
	}
	full, err := solver.General(inst, cfg.SolverOptions())
	if err != nil {
		return nil, err
	}

	weights := make([]float64, inst.NumQueries())
	for i := range weights {
		weights[i] = 1
	}

	t := &Table{
		ID:     "ablation-budgeted",
		Title:  fmt.Sprintf("Budgeted partial cover on a %d-query Private subset (full-cover cost %.0f)", inst.NumQueries(), full.Cost),
		XLabel: "budget (% of full-cover cost)",
		Series: []Series{{Name: "queries covered (%)"}, {Name: "budget spent (%)"}},
		Notes:  "future-work variant: greedy weight-per-completion-cost heuristic (no guarantee)",
	}
	for _, pct := range []int{10, 25, 50, 75, 90, 100} {
		budget := full.Cost * float64(pct) / 100
		sol, err := solver.Budgeted(inst, weights, budget, cfg.SolverOptions())
		if err != nil {
			return nil, err
		}
		t.XValues = append(t.XValues, fmt.Sprintf("%d%%", pct))
		t.Series[0].Values = append(t.Series[0].Values,
			round4(100*sol.CoveredWeight/float64(inst.NumQueries())))
		spent := 0.0
		if budget > 0 {
			spent = 100 * sol.Cost / full.Cost
		}
		t.Series[1].Values = append(t.Series[1].Values, round4(spent))
	}
	return t, nil
}

// AblationCostSensitivity studies how the paper's headline conclusion —
// MC³ beats the naive baselines — depends on the conjunction cost-factor
// distribution of our simulated Private dataset (the real distribution is
// proprietary and unobservable; DESIGN.md documents the substitution). For
// each factor range [lo, hi] (a conjunction costs u × sum-of-parts,
// u ~ U[lo, hi]) it reports the baselines' overhead over MC³[G].
//
// The expectation: the cheaper conjunctions get, the worse
// Property-Oriented fares (it cannot exploit them) and the better
// Query-Oriented fares (its per-query classifiers get cheap) — with MC³
// winning across the sweep because it mixes both regimes per query.
func AblationCostSensitivity(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	ranges := []struct{ lo, hi float64 }{
		{0.60, 1.30}, // conjunctions usually more expensive than their parts
		{0.40, 1.10},
		{0.20, 0.85}, // the default simulation
		{0.10, 0.50}, // conjunctions aggressively cheap
	}
	m := workload.PrivateSize

	t := &Table{
		ID:     "ablation-cost-sensitivity",
		Title:  fmt.Sprintf("Baseline overhead over MC3[G] vs conjunction cost factor (full %d-query Private load)", m),
		XLabel: "factor range",
		Unit:   "% above MC3[G] cost",
		Series: []Series{
			{Name: "Property-Oriented"}, {Name: "Query-Oriented"}, {Name: "Local-Greedy"},
		},
		Notes: "the baselines trade places as conjunctions cheapen; negative entries mean a heuristic edged MC3[G] on that draw",
	}
	for _, r := range ranges {
		d := workload.PrivateWithCostFactor(cfg.Seed, r.lo, r.hi)
		inst, err := d.Instance()
		if err != nil {
			return nil, err
		}
		mc3Sol, err := solver.General(inst, cfg.SolverOptions())
		if err != nil {
			return nil, err
		}
		t.XValues = append(t.XValues, fmt.Sprintf("[%.2f, %.2f]", r.lo, r.hi))
		for i, a := range []namedAlgo{
			{"Property-Oriented", solver.PropertyOriented},
			{"Query-Oriented", solver.QueryOriented},
			{"Local-Greedy", solver.LocalGreedy},
		} {
			sol, err := a.fn(inst, cfg.SolverOptions())
			if err != nil {
				return nil, fmt.Errorf("bench: %s: %w", a.name, err)
			}
			t.Series[i].Values = append(t.Series[i].Values, round4(100*(sol.Cost/mc3Sol.Cost-1)))
		}
	}
	return t, nil
}

func nan() float64 { return math.NaN() }

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
