package solver

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/hardness"
	"repro/internal/prep"
	"repro/internal/setcover"
	"repro/internal/workload"
)

// refBuildWSC is the pre-optimization WSC reduction, kept verbatim in test
// form: map-based element numbering with materialized per-bit slot tables and
// a map-based classifier dedup. Given the component's canonical query order,
// the pooled-scratch buildWSC must produce a bit-identical reduction — same
// element numbering, same set order, same costs — so the downstream engines
// see exactly the same instance.
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

// wscOf builds the reduction of component comp of r in its canonical order,
// as the residual solvers do.
func wscOf(r *prep.Result, comp []int) (*setcover.Instance, []core.ClassifierID) {
	cc, _ := cache.Canonical(nil, "", r, comp)
	defer cc.Release()
	return buildWSC(r, cc)
}

// maskOf returns classifier id's bitmask within query qi by scanning the
// query's classifier list.
func maskOf(inst *core.Instance, qi int, id core.ClassifierID) uint64 {
	for _, qc := range inst.QueryClassifiers(qi) {
		if qc.ID == id {
			return qc.Mask
		}
	}
	panic("solver: classifier not in query")
}

// compareWSC checks two reductions for bit-identity: universe size, set
// order, element lists, costs, the classifier behind each set, and every
// element's list of sets.
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
	for e := 0; e < got.NumElements(); e++ {
		if gs, ws := got.ElementSets(e), want.ElementSets(e); !slices.Equal(gs, ws) {
			t.Fatalf("%s: element %d is in sets %v, reference %v", name, e, gs, ws)
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

// hardnessInstances builds the Theorem 5.1 and Theorem 5.2 reductions of
// random set covers whose elements each lie in two to four sets.
func hardnessInstances(t *testing.T, trials int) map[string]*core.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(52))
	setCover := func() *hardness.SetCover {
		nElems, nSets := 6+rng.Intn(6), 4+rng.Intn(6)
		sc := &hardness.SetCover{NumElements: nElems, Sets: make([][]int, nSets)}
		for e := 0; e < nElems; e++ {
			for _, si := range rng.Perm(nSets)[:min(2+rng.Intn(3), nSets)] {
				sc.Sets[si] = append(sc.Sets[si], e)
			}
		}
		return sc
	}
	out := make(map[string]*core.Instance, 2*trials)
	for trial := 0; trial < trials; trial++ {
		r51, err := hardness.BuildTheorem51(setCover())
		if err != nil {
			t.Fatalf("Theorem 5.1: %v", err)
		}
		out[fmt.Sprintf("theorem51/%d", trial)] = r51.Inst
		r52, err := hardness.BuildTheorem52(setCover())
		if err != nil {
			t.Fatalf("Theorem 5.2: %v", err)
		}
		out[fmt.Sprintf("theorem52/%d", trial)] = r52.Inst
	}
	return out
}

// TestBuildWSCDifferential compares the CSR reduction against the reference
// on every residual component of all three workload generators, and of
// both hardness reductions after minimal and full preprocessing.
func TestBuildWSCDifferential(t *testing.T) {
	check := func(name string, inst *core.Instance, level prep.Level) {
		r, err := prep.RunCtxAmbient(context.Background(), inst, level, 0)
		if err != nil {
			t.Fatalf("%s: prep: %v", name, err)
		}
		for ci, comp := range r.Components {
			cc, _ := cache.Canonical(nil, "", r, comp)
			gotSC, gotIDs := buildWSC(r, cc)
			wantSC, wantIDs := refBuildWSC(r, cc.Queries)
			cc.Release()
			compareWSC(t, fmt.Sprintf("%s %v component %d", name, level, ci), gotSC, wantSC, gotIDs, wantIDs)
		}
	}
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
		check(name, inst, prep.Level(0))
	}
	components := 0
	for name, inst := range hardnessInstances(t, 8) {
		for _, level := range []prep.Level{prep.Minimal, prep.Full} {
			r, err := prep.Run(inst, level)
			if err != nil {
				t.Fatalf("%s: prep: %v", name, err)
			}
			components += len(r.Components)
			check(name, inst, level)
		}
	}
	if components == 0 {
		t.Fatal("the hardness reductions left no residual component to compare")
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

// refGeneralSolve mirrors generalWithCtx but routes every component, in its
// canonical order, through the reference reduction.
func refGeneralSolve(inst *core.Instance, opts Options) (*core.Solution, error) {
	ctx, cancelTimeout, opts := opts.solveContext()
	defer cancelTimeout()
	r, err := prep.RunCtxAmbient(ctx, inst, opts.Prep, opts.AmbientQueryLen)
	if err != nil {
		return nil, err
	}
	var picks []core.ClassifierID
	for _, comp := range r.Components {
		cc, _ := cache.Canonical(nil, "", r, comp)
		sc, setIDs := refBuildWSC(r, cc.Queries)
		cc.Release()
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

// TestBuildWSCSteadyStateAllocs gates the reduction's scratch: once a
// scratch is warm, a component build allocates only its output — the
// set-cover instance, its three CSR arrays and the set-ID list — however
// many sets the component has, not the numbering tables, dedup maps and
// per-set element lists it used to. It builds on one scratch rather than
// through the pool, which the race detector empties at random.
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
	cc, _ := cache.Canonical(nil, "", r, comp)
	defer cc.Release()
	ws := new(compScratch)
	sc, _ := ws.buildWSC(r, cc) // warm the scratch
	const budget = 5
	if avg := testing.AllocsPerRun(20, func() { ws.buildWSC(r, cc) }); avg > budget {
		t.Errorf("buildWSC allocates %.0f per call on a %d-set component, want ≤ %d (output only)",
			avg, sc.NumSets(), budget)
	}
}
