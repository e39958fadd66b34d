package solver

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/prep"
	"repro/internal/workload"
)

// buildInstance constructs an instance from query name lists and a cost
// table ("|"-separated sorted names → cost); everything else is infinite.
func buildInstance(t testing.TB, queries [][]string, costs map[string]float64) (*core.Universe, *core.Instance) {
	t.Helper()
	u := core.NewUniverse()
	qs := make([]core.PropSet, len(queries))
	for i, q := range queries {
		qs[i] = u.Set(q...)
	}
	ct := core.NewCostTable(math.Inf(1))
	for names, c := range costs {
		var parts []string
		start := 0
		for i := 0; i <= len(names); i++ {
			if i == len(names) || names[i] == '|' {
				parts = append(parts, names[start:i])
				start = i + 1
			}
		}
		ct.Set(u.Set(parts...), c)
	}
	inst, err := core.NewInstance(u, qs, ct, core.Options{})
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	return u, inst
}

// paperInstance is Example 1.1 (optimal cost 7 via {AC, AJ, W}).
func paperInstance(t testing.TB) *core.Instance {
	t.Helper()
	_, inst := buildInstance(t,
		[][]string{{"j", "w", "a"}, {"c", "a"}},
		map[string]float64{
			"c": 5, "a": 5, "j": 5, "w": 1,
			"a|c": 3, "a|w": 5, "a|j": 3, "j|w": 4, "j|w|a": 5,
		})
	return inst
}

// randomKTwoInstance generates a random instance with queries of length ≤ 2.
func randomKTwoInstance(rng *rand.Rand, maxProps, maxQueries int) *core.Instance {
	u := core.NewUniverse()
	names := make([]string, maxProps)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	nq := 1 + rng.Intn(maxQueries)
	var queries []core.PropSet
	for i := 0; i < nq; i++ {
		if rng.Intn(5) == 0 {
			queries = append(queries, u.Set(names[rng.Intn(maxProps)]))
		} else {
			a, b := rng.Intn(maxProps), rng.Intn(maxProps)
			if a == b {
				b = (b + 1) % maxProps
			}
			queries = append(queries, u.Set(names[a], names[b]))
		}
	}
	cm := core.CostFunc(func(s core.PropSet) float64 {
		h := int64(len(s))
		for _, id := range s {
			h = (h*31 + int64(id)) & 0x7fffffff
		}
		if s.Len() == 2 && h%5 == 0 {
			return math.Inf(1) // some pairs unavailable
		}
		return float64(1 + h%20)
	})
	inst, err := core.NewInstance(u, queries, cm, core.Options{})
	if err != nil {
		panic(err)
	}
	return inst
}

// randomGeneralInstance generates a random instance with queries up to
// length 4 and occasionally infinite costs.
func randomGeneralInstance(rng *rand.Rand, maxProps, maxQueries int) *core.Instance {
	u := core.NewUniverse()
	names := make([]string, maxProps)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	nq := 1 + rng.Intn(maxQueries)
	var queries []core.PropSet
	for i := 0; i < nq; i++ {
		qLen := 1 + rng.Intn(4)
		perm := rng.Perm(maxProps)
		var qNames []string
		for _, p := range perm[:min(qLen, maxProps)] {
			qNames = append(qNames, names[p])
		}
		queries = append(queries, u.Set(qNames...))
	}
	cm := core.CostFunc(func(s core.PropSet) float64 {
		h := int64(len(s))
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
		panic(err)
	}
	return inst
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestExactOnPaperExample(t *testing.T) {
	inst := paperInstance(t)
	sol, err := Exact(inst, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 7 {
		t.Errorf("Exact cost = %v, want 7", sol.Cost)
	}
	if err := inst.Verify(sol); err != nil {
		t.Error(err)
	}
}

func TestGeneralOnPaperExample(t *testing.T) {
	inst := paperInstance(t)
	for _, method := range []WSCMethod{WSCAuto, WSCGreedy, WSCPrimalDual, WSCLPRounding, WSCAutoLP} {
		opts := DefaultOptions()
		opts.WSC = method
		opts.Validate = true
		sol, err := General(inst, opts)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if err := inst.Verify(sol); err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		// All methods happen to find the optimum on this small example;
		// at minimum they must stay within the paper's guarantee
		// (2^{k-1} = 4 here).
		if sol.Cost > 7*4 {
			t.Errorf("%v: cost %v exceeds guarantee", method, sol.Cost)
		}
		if method == WSCAuto && sol.Cost != 7 {
			t.Errorf("Algorithm 3 cost = %v, want 7 on Example 1.1", sol.Cost)
		}
	}
}

func TestKTwoMatchesExactRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1001))
	tested := 0
	for trial := 0; trial < 250; trial++ {
		inst := randomKTwoInstance(rng, 6, 8)
		if inst.NumClassifiers() > 24 {
			continue
		}
		exact, err := Exact(inst, DefaultOptions())
		if err != nil {
			// Infeasible (some pair and singleton both unavailable).
			if _, err2 := KTwo(inst, DefaultOptions()); err2 == nil {
				t.Fatalf("trial %d: KTwo accepted an infeasible instance", trial)
			}
			continue
		}
		for _, level := range []prep.Level{prep.Minimal, prep.Full} {
			for _, engine := range []bipartite.Engine{bipartite.Dinic, bipartite.PushRelabel} {
				opts := DefaultOptions()
				opts.Prep = level
				opts.Engine = engine
				opts.Validate = true
				sol, err := KTwo(inst, opts)
				if err != nil {
					t.Fatalf("trial %d (%v/%v): %v", trial, level, engine, err)
				}
				if math.Abs(sol.Cost-exact.Cost) > 1e-9 {
					t.Fatalf("trial %d (%v/%v): KTwo cost %v != optimal %v\nqueries=%v",
						trial, level, engine, sol.Cost, exact.Cost, inst.Queries())
				}
			}
		}
		tested++
	}
	if tested < 100 {
		t.Fatalf("too few feasible instances: %d", tested)
	}
}

func TestKTwoRejectsLongQueries(t *testing.T) {
	inst := paperInstance(t)
	if _, err := KTwo(inst, DefaultOptions()); err == nil {
		t.Error("KTwo must reject k=3 instances")
	}
}

func TestGeneralWithinGuaranteeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2002))
	tested := 0
	for trial := 0; trial < 200; trial++ {
		inst := randomGeneralInstance(rng, 6, 5)
		if inst.NumClassifiers() > 40 {
			continue
		}
		exact, err := Exact(inst, DefaultOptions())
		if err != nil {
			continue
		}
		k := float64(inst.MaxQueryLen())
		guarantee := math.Pow(2, k-1)
		for _, method := range []WSCMethod{WSCAuto, WSCGreedy, WSCPrimalDual, WSCLPRounding} {
			opts := DefaultOptions()
			opts.WSC = method
			opts.Validate = true
			sol, err := General(inst, opts)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, method, err)
			}
			// Greedy's guarantee is ln Δ + 1 which can exceed 2^{k-1};
			// check each against its own bound loosely via the max.
			p := core.Analyze(inst)
			hBound := math.Log(math.Max(float64(p.Degree), 1)) + 1
			bound := math.Max(guarantee, hBound)
			if exact.Cost > 0 && sol.Cost > bound*exact.Cost+1e-9 {
				t.Fatalf("trial %d %v: cost %v > %v·OPT (OPT=%v)", trial, method, sol.Cost, bound, exact.Cost)
			}
		}
		tested++
	}
	if tested < 80 {
		t.Fatalf("too few feasible instances: %d", tested)
	}
}

func TestGeneralPrepNeverHurtsValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(3003))
	for trial := 0; trial < 100; trial++ {
		inst := randomGeneralInstance(rng, 7, 8)
		optsMin := DefaultOptions()
		optsMin.Prep = prep.Minimal
		optsMin.Validate = true
		optsFull := DefaultOptions()
		optsFull.Validate = true
		solMin, errMin := General(inst, optsMin)
		solFull, errFull := General(inst, optsFull)
		if (errMin == nil) != (errFull == nil) {
			t.Fatalf("trial %d: feasibility disagreement: %v vs %v", trial, errMin, errFull)
		}
		if errMin != nil {
			continue
		}
		_ = solMin
		_ = solFull
	}
}

func TestShortFirstOnPureShortEqualsKTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(4004))
	for trial := 0; trial < 50; trial++ {
		inst := randomKTwoInstance(rng, 6, 8)
		ktwo, err1 := KTwo(inst, DefaultOptions())
		sf, err2 := ShortFirst(inst, DefaultOptions())
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: feasibility disagreement %v vs %v", trial, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if math.Abs(ktwo.Cost-sf.Cost) > 1e-9 {
			t.Fatalf("trial %d: ShortFirst %v != KTwo %v on pure-short load", trial, sf.Cost, ktwo.Cost)
		}
	}
}

func TestShortFirstMixedLengths(t *testing.T) {
	_, inst := buildInstance(t,
		[][]string{{"x", "y"}, {"x", "y", "z"}},
		map[string]float64{
			"x": 3, "y": 3, "z": 2,
			"x|y": 4, "x|z": 9, "y|z": 9, "x|y|z": 9,
		})
	opts := DefaultOptions()
	opts.Validate = true
	sol, err := ShortFirst(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Verify(sol); err != nil {
		t.Fatal(err)
	}
	// Phase 1 covers xy with XY (4 < 6); phase 2 covers xyz with XY (free)
	// + Z (2). Total 6.
	if sol.Cost != 6 {
		t.Errorf("ShortFirst cost = %v, want 6", sol.Cost)
	}
}

func TestMixedOptimalOnUniformCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(5005))
	for trial := 0; trial < 100; trial++ {
		u := core.NewUniverse()
		names := []string{"a", "b", "c", "d", "e"}
		var queries []core.PropSet
		nq := 1 + rng.Intn(6)
		for i := 0; i < nq; i++ {
			if rng.Intn(5) == 0 {
				queries = append(queries, u.Set(names[rng.Intn(5)]))
			} else {
				a, b := rng.Intn(5), rng.Intn(5)
				if a == b {
					b = (b + 1) % 5
				}
				queries = append(queries, u.Set(names[a], names[b]))
			}
		}
		inst, err := core.NewInstance(u, queries, core.UniformCost(1), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mixed, err := Mixed(inst, DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := inst.Verify(mixed); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ktwo, err := KTwo(inst, DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(mixed.Cost-ktwo.Cost) > 1e-9 {
			t.Fatalf("trial %d: Mixed %v != optimal %v (both should be optimal on uniform costs)",
				trial, mixed.Cost, ktwo.Cost)
		}
	}
}

func TestMixedRejectsNonUniform(t *testing.T) {
	_, inst := buildInstance(t,
		[][]string{{"x", "y"}},
		map[string]float64{"x": 1, "y": 2, "x|y": 3})
	if _, err := Mixed(inst, DefaultOptions()); err == nil {
		t.Error("Mixed must reject varying costs")
	}
}

func TestPropertyAndQueryOriented(t *testing.T) {
	inst := paperInstance(t)
	po, err := PropertyOriented(inst, Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	// Singletons: j(5) w(1) a(5) c(5) = 16.
	if po.Cost != 16 {
		t.Errorf("PropertyOriented cost = %v, want 16", po.Cost)
	}
	qo, err := QueryOriented(inst, Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	// JWA(5) + AC(3) = 8.
	if qo.Cost != 8 {
		t.Errorf("QueryOriented cost = %v, want 8", qo.Cost)
	}
}

func TestPropertyOrientedMissingSingleton(t *testing.T) {
	_, inst := buildInstance(t,
		[][]string{{"x", "y"}},
		map[string]float64{"y": 2, "x|y": 5})
	if _, err := PropertyOriented(inst, Options{}); err == nil {
		t.Error("PropertyOriented must fail when a singleton is unavailable")
	}
}

func TestQueryOrientedMissingFull(t *testing.T) {
	_, inst := buildInstance(t,
		[][]string{{"x", "y"}},
		map[string]float64{"x": 1, "y": 2})
	if _, err := QueryOriented(inst, Options{}); err == nil {
		t.Error("QueryOriented must fail when a full classifier is unavailable")
	}
}

func TestLocalGreedyOnPaperExample(t *testing.T) {
	inst := paperInstance(t)
	sol, err := LocalGreedy(inst, Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Verify(sol); err != nil {
		t.Fatal(err)
	}
	// Local-Greedy picks AC (cheapest single-query cover: 3), then AJ+W
	// (4), totalling 7 here.
	if sol.Cost != 7 {
		t.Errorf("LocalGreedy cost = %v, want 7", sol.Cost)
	}
}

func TestLocalGreedyValidRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(6006))
	for trial := 0; trial < 100; trial++ {
		inst := randomGeneralInstance(rng, 6, 8)
		sol, err := LocalGreedy(inst, Options{Validate: true})
		if err != nil {
			// Must agree with Exact on feasibility.
			if _, err2 := Exact(inst, Options{}); err2 == nil {
				t.Fatalf("trial %d: LocalGreedy failed on feasible instance: %v", trial, err)
			}
			continue
		}
		if err := inst.Verify(sol); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestLocalGreedySelectionsShareAcrossQueries(t *testing.T) {
	// After covering one query, its classifiers are free for the next.
	_, inst := buildInstance(t,
		[][]string{{"x", "y"}, {"x", "z"}},
		map[string]float64{
			"x": 4, "y": 1, "z": 1,
			"x|y": 9, "x|z": 9,
		})
	sol, err := LocalGreedy(inst, Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	// Covers: xy via X+Y (5), then xz via Z only (X free): total 6.
	if sol.Cost != 6 {
		t.Errorf("LocalGreedy cost = %v, want 6", sol.Cost)
	}
}

func TestSolversDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7007))
	inst := randomGeneralInstance(rng, 7, 10)
	for name, f := range Registry() {
		s1, err1 := f(inst, DefaultOptions())
		s2, err2 := f(inst, DefaultOptions())
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: nondeterministic errors", name)
		}
		if err1 != nil {
			continue
		}
		if s1.Cost != s2.Cost || len(s1.Selected) != len(s2.Selected) {
			t.Errorf("%s: nondeterministic output (%v vs %v)", name, s1.Cost, s2.Cost)
		}
		for i := range s1.Selected {
			if s1.Selected[i] != s2.Selected[i] {
				t.Errorf("%s: nondeterministic selection", name)
				break
			}
		}
	}
}

func TestExactRejectsHugeInstances(t *testing.T) {
	u := core.NewUniverse()
	var queries []core.PropSet
	for i := 0; i < 40; i++ {
		queries = append(queries, u.Set(string(rune('a'+i%26))+string(rune('0'+i/26)), "zz"))
	}
	inst, err := core.NewInstance(u, queries, core.UniformCost(1), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumClassifiers() <= ExactLimit {
		t.Skip("instance unexpectedly small")
	}
	if _, err := Exact(inst, Options{}); err == nil {
		t.Error("Exact must reject instances beyond ExactLimit")
	}
}

func TestRegistryNamesResolve(t *testing.T) {
	if len(Registry()) != 5 {
		t.Errorf("general registry has %d entries, want 5", len(Registry()))
	}
	if len(RegistryShort()) != 4 {
		t.Errorf("short registry has %d entries, want 4", len(RegistryShort()))
	}
}

func TestLPLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(8008))
	checked := 0
	for trial := 0; trial < 80; trial++ {
		inst := randomGeneralInstance(rng, 6, 6)
		if inst.NumClassifiers() > 40 {
			continue
		}
		exact, err := Exact(inst, DefaultOptions())
		if err != nil {
			continue
		}
		bound, err := LPLowerBound(inst, DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if bound > exact.Cost+1e-6 {
			t.Fatalf("trial %d: LP bound %v exceeds optimum %v", trial, bound, exact.Cost)
		}
		// The bound should not be vacuous: within the frequency factor of
		// the optimum (integrality gap ≤ f for covering LPs).
		p := core.Analyze(inst)
		f := float64(p.Frequency)
		if f >= 1 && exact.Cost > f*bound+1e-6 {
			t.Fatalf("trial %d: optimum %v exceeds f×bound = %v×%v", trial, exact.Cost, f, bound)
		}
		checked++
	}
	if checked < 30 {
		t.Fatalf("too few instances checked: %d", checked)
	}
}

func TestLPLowerBoundOnPaperExample(t *testing.T) {
	inst := paperInstance(t)
	bound, err := LPLowerBound(inst, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if bound > 7+1e-9 {
		t.Errorf("bound %v exceeds the known optimum 7", bound)
	}
	if bound < 1 {
		t.Errorf("bound %v is vacuous", bound)
	}
}

func TestPortfolioNeverWorseThanMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(1212))
	for trial := 0; trial < 80; trial++ {
		inst := randomGeneralInstance(rng, 7, 8)
		opts := DefaultOptions()
		opts.Validate = true
		port, err := Portfolio(inst, opts)
		if err != nil {
			// All members failed — then each must fail individually too.
			if _, err2 := General(inst, opts); err2 == nil {
				t.Fatalf("trial %d: portfolio failed but General succeeded", trial)
			}
			continue
		}
		for name, fn := range map[string]Func{"general": General, "short-first": ShortFirst, "local-greedy": LocalGreedy} {
			sol, err := fn(inst, opts)
			if err != nil {
				continue
			}
			if port.Cost > sol.Cost+1e-9 {
				t.Fatalf("trial %d: portfolio %v worse than %s %v", trial, port.Cost, name, sol.Cost)
			}
		}
	}
}

func TestPortfolioShortLoadIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1313))
	for trial := 0; trial < 40; trial++ {
		inst := randomKTwoInstance(rng, 6, 8)
		if inst.NumClassifiers() > 24 {
			continue
		}
		exact, err := Exact(inst, DefaultOptions())
		if err != nil {
			continue
		}
		port, err := Portfolio(inst, DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(port.Cost-exact.Cost) > 1e-9 {
			t.Fatalf("trial %d: portfolio %v != optimal %v on short load", trial, port.Cost, exact.Cost)
		}
	}
}

// TestAutoGate: Auto is the static k ≤ 2 gate — the exact KTwo solve on a
// load whose queries all have length ≤ 2, General on any longer load. On
// this seed's k ≤ 2 slice General is strictly costlier than KTwo, so a gate
// sending it to General fails the comparison.
func TestAutoGate(t *testing.T) {
	d := workload.Synthetic(200, 4)
	for _, tc := range []struct {
		name string
		d    *workload.Dataset
		long bool
		want Func
	}{
		{"k<=2", d.ShortSlice(), false, KTwo},
		{"k>2", d, true, General},
	} {
		inst, err := tc.d.Instance()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (inst.MaxQueryLen() > 2) != tc.long {
			t.Fatalf("%s: load has max query length %d", tc.name, inst.MaxQueryLen())
		}
		got, err := Auto(inst, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: Auto: %v", tc.name, err)
		}
		want, err := tc.want(inst, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		compareSolutions(t, tc.name, got, want)
	}
}
