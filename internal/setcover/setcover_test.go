package setcover

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// bruteOpt finds the optimal cover cost by enumeration (≤ ~20 sets).
func bruteOpt(in *Instance) float64 {
	best := math.Inf(1)
	m := in.NumSets()
	for mask := 0; mask < 1<<uint(m); mask++ {
		var sets []int
		for s := 0; s < m; s++ {
			if mask&(1<<uint(s)) != 0 {
				sets = append(sets, s)
			}
		}
		if in.IsCover(sets) {
			if c := in.CoverCost(sets); c < best {
				best = c
			}
		}
	}
	return best
}

// randomSets draws the sets and costs of a coverable random instance: each
// element joins each set with probability 1/3, then every element is
// appended, out of order, to one random set unless it is already there.
// Costs are integers in [1, maxCost].
func randomSets(rng *rand.Rand, nElems, nSets, maxCost int) ([][]int32, []float64) {
	membership := make([][]int32, nSets)
	for s := 0; s < nSets; s++ {
		var elems []int32
		for e := 0; e < nElems; e++ {
			if rng.Intn(3) == 0 {
				elems = append(elems, int32(e))
			}
		}
		membership[s] = elems
	}
	// Guarantee coverability.
	for e := 0; e < nElems; e++ {
		s := rng.Intn(nSets)
		found := false
		for _, x := range membership[s] {
			if x == int32(e) {
				found = true
			}
		}
		if !found {
			membership[s] = append(membership[s], int32(e))
		}
	}
	costs := make([]float64, nSets)
	for s := range costs {
		costs[s] = float64(rng.Intn(maxCost) + 1)
	}
	return membership, costs
}

// randomInstance builds a coverable random instance.
func randomInstance(rng *rand.Rand, nElems, nSets, maxCost int) *Instance {
	sets, costs := randomSets(rng, nElems, nSets, maxCost)
	in := New(nElems)
	for s := range sets {
		in.AddSet(sets[s], costs[s])
	}
	return in
}

func TestGreedyTextbookExample(t *testing.T) {
	// Universe {0..5}; sets: A={0,1,2,3} cost 4, B={0,1} cost 1,
	// C={2,3} cost 1, D={4,5} cost 1. Optimal = B+C+D = 3.
	in := New(6)
	in.AddSet([]int32{0, 1, 2, 3}, 4)
	in.AddSet([]int32{0, 1}, 1)
	in.AddSet([]int32{2, 3}, 1)
	in.AddSet([]int32{4, 5}, 1)
	picked, cost, err := in.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	if !in.IsCover(picked) {
		t.Fatal("greedy result is not a cover")
	}
	if cost != 3 {
		t.Errorf("greedy cost = %v, want 3 (ratios favour the unit sets)", cost)
	}
}

func TestGreedyLazyHeapStaleness(t *testing.T) {
	// A scenario where a stale queue entry must not be selected: the big set
	// looks great initially (cost 3 / 3 elements = 1), but after the free
	// set covers two of its elements its true ratio is 3 — worse than the
	// remaining unit set (cost 2 / 1 element = 2).
	in := New(3)
	big := in.AddSet([]int32{0, 1, 2}, 3)
	in.AddSet([]int32{0, 1}, 0) // free: always chosen first
	small := in.AddSet([]int32{2}, 2)
	picked, cost, err := in.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	if cost != 2 {
		t.Errorf("cost = %v, want 2 (free set + small set)", cost)
	}
	for _, s := range picked {
		if s == big {
			t.Error("stale big set must not be selected")
		}
	}
	_ = small
}

func TestAllAlgorithmsProduceCovers(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 150; trial++ {
		in := randomInstance(rng, 1+rng.Intn(12), 2+rng.Intn(12), 10)
		for name, algo := range map[string]func() ([]int, float64, error){
			"greedy":     in.Greedy,
			"primaldual": in.PrimalDual,
			"lprounding": in.LPRounding,
		} {
			picked, cost, err := algo()
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if !in.IsCover(picked) {
				t.Fatalf("trial %d %s: not a cover", trial, name)
			}
			if math.Abs(cost-in.CoverCost(picked)) > 1e-9 {
				t.Fatalf("trial %d %s: reported cost %v != actual %v", trial, name, cost, in.CoverCost(picked))
			}
		}
	}
}

func TestApproximationGuarantees(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 80; trial++ {
		in := randomInstance(rng, 1+rng.Intn(8), 2+rng.Intn(8), 10)
		opt := bruteOpt(in)
		if math.IsInf(opt, 1) {
			t.Fatal("random instance must be coverable")
		}
		f := float64(in.Frequency())
		delta := float64(in.Degree())
		hDelta := 0.0
		for i := 1; i <= int(delta); i++ {
			hDelta += 1 / float64(i)
		}

		_, gCost, err := in.Greedy()
		if err != nil {
			t.Fatal(err)
		}
		if gCost > hDelta*opt+1e-9 {
			t.Errorf("trial %d: greedy %v exceeds H(Δ)·OPT = %v·%v", trial, gCost, hDelta, opt)
		}
		_, pdCost, err := in.PrimalDual()
		if err != nil {
			t.Fatal(err)
		}
		if pdCost > f*opt+1e-9 {
			t.Errorf("trial %d: primal-dual %v exceeds f·OPT = %v·%v", trial, pdCost, f, opt)
		}
		_, lpCost, err := in.LPRounding()
		if err != nil {
			t.Fatal(err)
		}
		if lpCost > f*opt+1e-9 {
			t.Errorf("trial %d: LP rounding %v exceeds f·OPT = %v·%v", trial, lpCost, f, opt)
		}
	}
}

func TestPrimalDualAndLPRoundingAgreeOnGuarantee(t *testing.T) {
	// Both are f-approximations; on frequency-2 instances (vertex cover)
	// they must both stay within 2·OPT.
	rng := rand.New(rand.NewSource(66))
	for trial := 0; trial < 50; trial++ {
		nV := 2 + rng.Intn(6)
		in := New(0)
		// Build a graph as set cover: vertices are sets, edges elements.
		type edge struct{ u, v int }
		var edges []edge
		for u := 0; u < nV; u++ {
			for v := u + 1; v < nV; v++ {
				if rng.Intn(2) == 0 {
					edges = append(edges, edge{u, v})
				}
			}
		}
		if len(edges) == 0 {
			continue
		}
		in = New(len(edges))
		elemsOf := make([][]int32, nV)
		for ei, e := range edges {
			elemsOf[e.u] = append(elemsOf[e.u], int32(ei))
			elemsOf[e.v] = append(elemsOf[e.v], int32(ei))
		}
		for u := 0; u < nV; u++ {
			in.AddSet(elemsOf[u], float64(1+rng.Intn(5)))
		}
		if got := in.Frequency(); got != 2 {
			t.Fatalf("vertex-cover instance must have f=2, got %d", got)
		}
		opt := bruteOpt(in)
		_, pd, _ := in.PrimalDual()
		_, lpc, _ := in.LPRounding()
		if pd > 2*opt+1e-9 || lpc > 2*opt+1e-9 {
			t.Errorf("trial %d: pd=%v lp=%v opt=%v", trial, pd, lpc, opt)
		}
	}
}

func TestZeroCostSets(t *testing.T) {
	in := New(2)
	in.AddSet([]int32{0}, 0)
	in.AddSet([]int32{1}, 5)
	in.AddSet([]int32{0, 1}, 6)
	for name, algo := range map[string]func() ([]int, float64, error){
		"greedy":     in.Greedy,
		"primaldual": in.PrimalDual,
		"lprounding": in.LPRounding,
	} {
		picked, cost, err := algo()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !in.IsCover(picked) {
			t.Fatalf("%s: not a cover", name)
		}
		if cost > 5 {
			t.Errorf("%s: cost %v, want ≤ 5 (zero set + unit set)", name, cost)
		}
	}
}

func TestUncoverableElement(t *testing.T) {
	in := New(2)
	in.AddSet([]int32{0}, 1)
	for name, algo := range map[string]func() ([]int, float64, error){
		"greedy":     in.Greedy,
		"primaldual": in.PrimalDual,
		"lprounding": in.LPRounding,
	} {
		if _, _, err := algo(); err == nil {
			t.Errorf("%s: uncoverable element must error", name)
		}
	}
}

func TestFrequencyAndDegree(t *testing.T) {
	in := New(3)
	in.AddSet([]int32{0, 1, 2}, 1)
	in.AddSet([]int32{0}, 1)
	in.AddSet([]int32{0, 1}, 1)
	if got := in.Frequency(); got != 3 {
		t.Errorf("Frequency = %d, want 3 (element 0)", got)
	}
	if got := in.Degree(); got != 3 {
		t.Errorf("Degree = %d, want 3", got)
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := randomInstance(rng, 30, 40, 20)
	g1, c1, _ := in.Greedy()
	g2, c2, _ := in.Greedy()
	if !reflect.DeepEqual(g1, g2) || c1 != c2 {
		t.Error("Greedy must be deterministic")
	}
	p1, pc1, _ := in.PrimalDual()
	p2, pc2, _ := in.PrimalDual()
	if !reflect.DeepEqual(p1, p2) || pc1 != pc2 {
		t.Error("PrimalDual must be deterministic")
	}
}

func TestReverseDeleteRemovesRedundant(t *testing.T) {
	// PrimalDual processing element order can select both singletons and
	// the pair; reverse-delete should drop extras while keeping a cover.
	in := New(2)
	in.AddSet([]int32{0, 1}, 2)
	in.AddSet([]int32{0}, 1)
	in.AddSet([]int32{1}, 1)
	picked, cost, err := in.PrimalDual()
	if err != nil {
		t.Fatal(err)
	}
	if !in.IsCover(picked) {
		t.Fatal("not a cover")
	}
	if cost > 2 {
		t.Errorf("cost = %v, want ≤ 2 after reverse delete", cost)
	}
}

func TestLargeGreedyScales(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	n := 20000
	in := New(n)
	// Chain structure plus random big sets.
	for e := 0; e < n; e++ {
		in.AddSet([]int32{int32(e)}, 1)
	}
	for s := 0; s < 2000; s++ {
		var elems []int32
		base := rng.Intn(n - 20)
		for i := 0; i < 20; i++ {
			elems = append(elems, int32(base+i))
		}
		in.AddSet(elems, 3)
	}
	picked, cost, err := in.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	if !in.IsCover(picked) {
		t.Fatal("not a cover")
	}
	if cost >= float64(n) {
		t.Errorf("greedy should exploit the cheap big sets, cost=%v", cost)
	}
}

func TestAddSetValidation(t *testing.T) {
	in := New(1)
	for _, fn := range []func(){
		func() { in.AddSet([]int32{0}, -1) },
		func() { in.AddSet([]int32{0}, math.Inf(1)) },
		func() { in.AddSet([]int32{1}, 1) },
		func() { New(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestLPValueLowerBoundsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 80; trial++ {
		in := randomInstance(rng, 1+rng.Intn(8), 2+rng.Intn(8), 10)
		opt := bruteOpt(in)
		v, err := in.LPValue()
		if err != nil {
			t.Fatal(err)
		}
		if v > opt+1e-6 {
			t.Fatalf("trial %d: LP value %v exceeds integral optimum %v", trial, v, opt)
		}
		// LP is at least OPT/f (covering integrality gap).
		f := float64(in.Frequency())
		if f >= 1 && opt > f*v+1e-6 {
			t.Fatalf("trial %d: optimum %v exceeds f×LP = %v×%v", trial, opt, f, v)
		}
	}
}

func TestDualCertificate(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for trial := 0; trial < 80; trial++ {
		in := randomInstance(rng, 1+rng.Intn(8), 2+rng.Intn(8), 10)
		bound, y, err := in.DualCertificate()
		if err != nil {
			t.Fatal(err)
		}
		// Re-verify from first principles (as a downstream user would).
		var sum float64
		for e, v := range y {
			if v < 0 {
				t.Fatalf("trial %d: negative dual at element %d", trial, e)
			}
			sum += v
		}
		if math.Abs(sum-bound) > 1e-9 {
			t.Fatalf("trial %d: bound %v != Σy %v", trial, bound, sum)
		}
		for s := 0; s < in.NumSets(); s++ {
			var setSum float64
			for _, e := range in.Set(s) {
				setSum += y[e]
			}
			if setSum > in.Cost(s)+1e-5 {
				t.Fatalf("trial %d: set %d dual-infeasible: %v > %v", trial, s, setSum, in.Cost(s))
			}
		}
		// The certificate matches the LP value (both are the LP optimum).
		v, err := in.LPValue()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v-bound) > 1e-6*(1+v) {
			t.Fatalf("trial %d: certificate %v != LP value %v", trial, bound, v)
		}
		// And lower-bounds the integral optimum.
		if opt := bruteOpt(in); bound > opt+1e-6 {
			t.Fatalf("trial %d: certified bound %v exceeds optimum %v", trial, bound, opt)
		}
	}
}

func TestDualCertificateUncoverable(t *testing.T) {
	in := New(2)
	in.AddSet([]int32{0}, 1)
	if _, _, err := in.DualCertificate(); err == nil {
		t.Error("uncoverable instance must error")
	}
	if _, err := in.LPValue(); err == nil {
		t.Error("uncoverable instance must error")
	}
}

func TestDualCertificateEmptyUniverse(t *testing.T) {
	in := New(0)
	bound, y, err := in.DualCertificate()
	if err != nil || bound != 0 || y != nil {
		t.Errorf("empty universe: bound=%v y=%v err=%v", bound, y, err)
	}
}

func TestAddSetDeduplicatesElements(t *testing.T) {
	in := New(3)
	s := in.AddSet([]int32{2, 0, 2, 2, 0}, 4)

	// The stored set is sorted and unique.
	got := in.Set(s)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Set(%d) = %v, want [0 2]", s, got)
	}
	// Each element registers the set once, so f and Δ are not inflated.
	if f := in.Frequency(); f != 1 {
		t.Errorf("Frequency = %d, want 1", f)
	}
	if d := in.Degree(); d != 2 {
		t.Errorf("Degree = %d, want 2", d)
	}

	// Regression: with duplicates kept, this instance made greedy prefer
	// the duplicated set (cost/|elements| = 4/5 < 1) over the two singletons
	// (cost 1 each), yielding cost 4+1 instead of the optimum 2.
	in.AddSet([]int32{0}, 1)
	in.AddSet([]int32{1}, 1)
	in.AddSet([]int32{2}, 1)
	picked, cost, err := in.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	if !in.IsCover(picked) {
		t.Fatalf("greedy result %v is not a cover", picked)
	}
	if cost != 3 {
		t.Errorf("greedy cost = %v, want 3 (three unit singletons; the padded set must not look dense)", cost)
	}
}

func TestAddSetDoesNotModifyInput(t *testing.T) {
	in := New(4)
	elems := []int32{3, 1, 3, 0}
	in.AddSet(elems, 1)
	if elems[0] != 3 || elems[1] != 1 || elems[2] != 3 || elems[3] != 0 {
		t.Errorf("AddSet modified its input: %v", elems)
	}
}
