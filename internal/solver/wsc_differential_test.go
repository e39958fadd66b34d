package solver

import (
	"context"
	"math"
	"math/bits"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/prep"
	"repro/internal/setcover"
	"repro/internal/workload"
)

// refBuildWSC is the pre-optimization WSC reduction, kept verbatim in test
// form: map-based element numbering with materialized per-bit slot tables and
// a map-based classifier dedup. The pooled-scratch buildWSC must produce a
// bit-identical reduction — same element numbering, same set order, same
// costs — so the downstream engines see exactly the same instance.
func refBuildWSC(r *prep.Result, comp []int) (*setcover.Instance, []core.ClassifierID) {
	inst := r.Inst

	elemBase := make(map[int]int, len(comp))
	numElems := 0
	bitSlot := make(map[int][]int, len(comp))
	for _, qi := range comp {
		L := inst.Query(qi).Len()
		slots := make([]int, L)
		elemBase[qi] = numElems
		cnt := 0
		for b := 0; b < L; b++ {
			if r.CoveredMask[qi]&(1<<uint(b)) != 0 {
				slots[b] = -1
				continue
			}
			slots[b] = cnt
			cnt++
		}
		bitSlot[qi] = slots
		numElems += cnt
	}

	sc := setcover.New(numElems)
	var setIDs []core.ClassifierID
	seen := make(map[core.ClassifierID]bool)
	var elems []int32
	for _, qi := range comp {
		for _, qc := range inst.QueryClassifiers(qi) {
			id := qc.ID
			if seen[id] || r.Removed[id] || r.SelectedSet[id] {
				continue
			}
			seen[id] = true
			if c := r.EffCost[id]; math.IsInf(c, 0) || math.IsNaN(c) {
				continue
			}
			elems = elems[:0]
			for _, q2 := range inst.ClassifierQueries(id) {
				if r.CoveredQuery[q2] {
					continue
				}
				slots, ok := bitSlot[int(q2)]
				if !ok {
					continue
				}
				mask := maskOf(inst, int(q2), id)
				for m := mask; m != 0; m &= m - 1 {
					b := bits.TrailingZeros64(m)
					if slots[b] >= 0 {
						elems = append(elems, int32(elemBase[int(q2)]+slots[b]))
					}
				}
			}
			if len(elems) == 0 {
				continue
			}
			sc.AddSet(elems, r.EffCost[id])
			setIDs = append(setIDs, id)
		}
	}
	return sc, setIDs
}

// compareWSC checks two reductions for bit-identity: universe size, set
// order, element lists, costs, and the classifier behind each set.
func compareWSC(t *testing.T, name string, got, want *setcover.Instance, gotIDs, wantIDs []core.ClassifierID) {
	t.Helper()
	if got.NumElements() != want.NumElements() {
		t.Fatalf("%s: %d elements, reference has %d", name, got.NumElements(), want.NumElements())
	}
	if got.NumSets() != want.NumSets() {
		t.Fatalf("%s: %d sets, reference has %d", name, got.NumSets(), want.NumSets())
	}
	if len(gotIDs) != len(wantIDs) {
		t.Fatalf("%s: %d set IDs, reference has %d", name, len(gotIDs), len(wantIDs))
	}
	for s := 0; s < got.NumSets(); s++ {
		if gotIDs[s] != wantIDs[s] {
			t.Fatalf("%s: set %d is classifier %d, reference %d", name, s, gotIDs[s], wantIDs[s])
		}
		if got.Cost(s) != want.Cost(s) {
			t.Fatalf("%s: set %d cost %v, reference %v", name, s, got.Cost(s), want.Cost(s))
		}
		ge, we := got.Set(s), want.Set(s)
		if len(ge) != len(we) {
			t.Fatalf("%s: set %d has %d elements, reference %d", name, s, len(ge), len(we))
		}
		for i := range ge {
			if ge[i] != we[i] {
				t.Fatalf("%s: set %d element[%d] = %d, reference %d", name, s, i, ge[i], we[i])
			}
		}
	}
}

// differentialDatasets builds the paper's three workload generators at a
// size where preprocessing leaves plenty of residual components.
func differentialDatasets(n int) map[string]*workload.Dataset {
	return map[string]*workload.Dataset{
		"synthetic": workload.Synthetic(n, 17),
		"bestbuy":   workload.BestBuy(17),
		"private":   workload.Private(17),
	}
}

// TestBuildWSCDifferential compares the pooled-scratch reduction against the
// reference on every residual component of all three workload generators.
func TestBuildWSCDifferential(t *testing.T) {
	for name, d := range differentialDatasets(500) {
		queries := d.Queries
		if len(queries) > 500 {
			queries = queries[:500]
		}
		inst, err := core.NewInstance(d.Universe, queries, d.Costs, core.Options{})
		if err != nil {
			t.Fatalf("%s: NewInstance: %v", name, err)
		}
		r, err := prep.RunCtxAmbient(context.Background(), inst, prep.Level(0), 0)
		if err != nil {
			t.Fatalf("%s: prep: %v", name, err)
		}
		if len(r.Components) == 0 {
			t.Fatalf("%s: preprocessing left no residual components; dataset too easy for the differential", name)
		}
		for ci, comp := range r.Components {
			gotSC, gotIDs := buildWSC(r, comp)
			wantSC, wantIDs := refBuildWSC(r, comp)
			compareWSC(t, name, gotSC, wantSC, gotIDs, wantIDs)
			_ = ci
		}
	}
}

// TestSolveDifferentialWorkloads proves end-to-end solution identity: General
// run through the optimized reduction must select the same classifiers at
// the same cost as a solve whose components go through the reference
// reduction (same engines, same order). KTwo likewise on a k ≤ 2 load.
func TestSolveDifferentialWorkloads(t *testing.T) {
	for name, d := range differentialDatasets(400) {
		queries := d.Queries
		if len(queries) > 400 {
			queries = queries[:400]
		}
		inst, err := core.NewInstance(d.Universe, queries, d.Costs, core.Options{})
		if err != nil {
			t.Fatalf("%s: NewInstance: %v", name, err)
		}
		opts := Options{}
		got, err := General(inst, opts)
		if err != nil {
			t.Fatalf("%s: General: %v", name, err)
		}
		want, err := refGeneralSolve(inst, opts)
		if err != nil {
			t.Fatalf("%s: reference solve: %v", name, err)
		}
		compareSolutions(t, name, got, want)
	}

	// k ≤ 2 load for the exact solver.
	d := workload.Synthetic(400, 19)
	var short []core.PropSet
	for _, q := range d.Queries {
		if q.Len() <= 2 {
			short = append(short, q)
		}
	}
	inst, err := core.NewInstance(d.Universe, short, d.Costs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := KTwo(inst, Options{})
	if err != nil {
		t.Fatalf("KTwo: %v", err)
	}
	// KTwo's scratch conversion only changed where the construction buffers
	// live, so a second run (pool now warm, buffers dirty) must reproduce
	// the first run exactly.
	again, err := KTwo(inst, Options{})
	if err != nil {
		t.Fatalf("KTwo rerun: %v", err)
	}
	compareSolutions(t, "ktwo", got, again)
	// And General on the same k ≤ 2 instance must cost no less than the
	// exact optimum KTwo found.
	gen, err := General(inst, Options{})
	if err != nil {
		t.Fatalf("General on k2: %v", err)
	}
	if gen.Cost < got.Cost-1e-9 {
		t.Fatalf("General found cost %v below KTwo's exact optimum %v", gen.Cost, got.Cost)
	}
}

// refGeneralSolve mirrors generalWithCtx but routes every component through
// the reference reduction.
func refGeneralSolve(inst *core.Instance, opts Options) (*core.Solution, error) {
	ctx, cancelTimeout, opts := opts.solveContext()
	defer cancelTimeout()
	r, err := prep.RunCtxAmbient(ctx, inst, opts.Prep, opts.AmbientQueryLen)
	if err != nil {
		return nil, err
	}
	var picks []core.ClassifierID
	for _, comp := range r.Components {
		sc, setIDs := refBuildWSC(r, comp)
		if sc.NumElements() == 0 {
			continue
		}
		sets, _, _, err := runWSC(ctx, sc, opts.WSC)
		if err != nil {
			return nil, err
		}
		for _, s := range sets {
			picks = append(picks, setIDs[s])
		}
	}
	return assemble(inst, r, picks, opts)
}

func compareSolutions(t *testing.T, name string, got, want *core.Solution) {
	t.Helper()
	if got.Cost != want.Cost {
		t.Fatalf("%s: cost %v, reference %v", name, got.Cost, want.Cost)
	}
	g := append([]core.ClassifierID(nil), got.Selected...)
	w := append([]core.ClassifierID(nil), want.Selected...)
	sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	if len(g) != len(w) {
		t.Fatalf("%s: %d selected classifiers, reference %d", name, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: selected[%d] = %d, reference %d", name, i, g[i], w[i])
		}
	}
}

// TestBuildWSCSteadyStateAllocs gates the pooled reduction: once the pool is
// warm, a component build allocates only its output (the setcover instance
// and set-ID list), not the numbering tables and dedup maps it used to.
func TestBuildWSCSteadyStateAllocs(t *testing.T) {
	d := workload.Synthetic(300, 23)
	inst, err := core.NewInstance(d.Universe, d.Queries[:300], d.Costs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := prep.RunCtxAmbient(context.Background(), inst, prep.Level(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Components) == 0 {
		t.Skip("no residual components")
	}
	comp := r.Components[0]
	for _, c := range r.Components {
		if len(c) > len(comp) {
			comp = c
		}
	}
	buildWSC(r, comp) // warm the pool
	refSC, _ := refBuildWSC(r, comp)
	// Output allocations: setcover.New (instance + elemSets) plus one copied
	// slice per AddSet, plus elemSets/sets/costs growth and the setIDs list.
	// Everything beyond ~2 per set is scratch that should have come from the
	// pool.
	budget := float64(2*refSC.NumSets() + 16)
	if avg := testing.AllocsPerRun(20, func() { buildWSC(r, comp) }); avg > budget {
		t.Errorf("buildWSC allocates %.0f per call on a %d-set component, want ≤ %.0f (output only)",
			avg, refSC.NumSets(), budget)
	}
}
