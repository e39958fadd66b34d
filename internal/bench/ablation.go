package bench

import (
	"fmt"
	"math"

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

// Ablations runs every ablation experiment.
func Ablations(cfg Config) ([]*Table, error) {
	runners := []func(Config) (*Table, error){
		AblationWSC, AblationEngine, AblationPrepSteps, AblationLPPrep,
		AblationBoundedK, AblationApproxRatio, AblationCertifiedRatio,
		AblationBudgeted, AblationCostSensitivity,
	}
	var out []*Table
	for _, r := range runners {
		t, err := r(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

func nan() float64 { return math.NaN() }

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
