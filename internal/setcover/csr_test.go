package setcover

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/hardness"
	"repro/internal/prep"
	"repro/internal/workload"
)

// buildBoth adds the same element lists, in the same order, to a CSR
// instance and to the reference.
func buildBoth(nElems int, sets [][]int32, costs []float64) (*Instance, *refInstance) {
	in, ref := New(nElems), newRef(nElems)
	for s := range sets {
		in.AddSet(sets[s], costs[s])
		ref.AddSet(sets[s], costs[s])
	}
	return in, ref
}

// csrOf packs the reference's stored sets into CSR arrays and builds the
// instance from them with NewCSR.
func csrOf(ref *refInstance) *Instance {
	off := make([]int32, 1, len(ref.sets)+1)
	var elems []int32
	for _, s := range ref.sets {
		elems = append(elems, s...)
		off = append(off, int32(len(elems)))
	}
	return NewCSR(ref.numElements, off, elems, slices.Clone(ref.costs))
}

// errText renders an engine error for comparison; nil renders as "<nil>".
func errText(err error) string { return fmt.Sprint(err) }

// compareToRef requires every instance in ins to store exactly the
// reference's set system and every engine to return exactly the reference
// engine's output. The LP engines run only when withLP is set, since their
// dense simplex is meant for small instances, and only on ins[0]: the
// others hold the same arrays, checked first, so their LP is the same
// program.
func compareToRef(t *testing.T, name string, ref *refInstance, withLP bool, ins ...*Instance) {
	t.Helper()
	ctx := context.Background()
	rgp, rgc, rpops, rgerr := ref.greedy()
	rpp, rpc, rtight, rperr := ref.primalDualCtx(ctx)
	for _, in := range ins {
		if in.NumElements() != ref.numElements || in.NumSets() != len(ref.sets) {
			t.Fatalf("%s: %d elements and %d sets, reference %d and %d",
				name, in.NumElements(), in.NumSets(), ref.numElements, len(ref.sets))
		}
		for s := range ref.sets {
			if !slices.Equal(in.Set(s), ref.sets[s]) || in.Cost(s) != ref.costs[s] {
				t.Fatalf("%s: set %d is %v at cost %v, reference %v at %v",
					name, s, in.Set(s), in.Cost(s), ref.sets[s], ref.costs[s])
			}
		}
		for e := range ref.elemSets {
			if !slices.Equal(in.ElementSets(e), ref.elemSets[e]) {
				t.Fatalf("%s: element %d is in sets %v, reference %v", name, e, in.ElementSets(e), ref.elemSets[e])
			}
		}
		if in.Frequency() != ref.Frequency() || in.Degree() != ref.Degree() {
			t.Fatalf("%s: f=%d Δ=%d, reference f=%d Δ=%d", name, in.Frequency(), in.Degree(), ref.Frequency(), ref.Degree())
		}
		gp, gc, pops, gerr := in.greedyCtx(ctx)
		if !slices.Equal(gp, rgp) || gc != rgc || pops != rpops || errText(gerr) != errText(rgerr) {
			t.Fatalf("%s: greedy picked %v (cost %v, %d pops, err %v), reference %v (cost %v, %d pops, err %v)",
				name, gp, gc, pops, gerr, rgp, rgc, rpops, rgerr)
		}
		pp, pc, tight, perr := in.primalDualCtx(ctx)
		if !slices.Equal(pp, rpp) || pc != rpc || tight != rtight || errText(perr) != errText(rperr) {
			t.Fatalf("%s: primal-dual picked %v (cost %v, %d tight, err %v), reference %v (cost %v, %d tight, err %v)",
				name, pp, pc, tight, perr, rpp, rpc, rtight, rperr)
		}
	}
	if !withLP {
		return
	}
	in := ins[0]
	v, verr := in.LPValue()
	rv, rverr := ref.LPValue()
	if v != rv || errText(verr) != errText(rverr) {
		t.Fatalf("%s: LPValue %v (err %v), reference %v (err %v)", name, v, verr, rv, rverr)
	}
	b, y, berr := in.DualCertificate()
	rb, ry, rberr := ref.DualCertificate()
	if b != rb || !slices.Equal(y, ry) || errText(berr) != errText(rberr) {
		t.Fatalf("%s: DualCertificate %v %v (err %v), reference %v %v (err %v)", name, b, y, berr, rb, ry, rberr)
	}
	lpp, lpc, lperr := in.lpRoundingCtx(ctx)
	rlpp, rlpc, rlperr := ref.lpRoundingCtx(ctx)
	if !slices.Equal(lpp, rlpp) || lpc != rlpc || errText(lperr) != errText(rlperr) {
		t.Fatalf("%s: LPRounding picked %v (cost %v, err %v), reference %v (cost %v, err %v)",
			name, lpp, lpc, lperr, rlpp, rlpc, rlperr)
	}
}

// lpSized reports whether the dense simplex runs quickly on ref.
func lpSized(ref *refInstance) bool { return ref.numElements*len(ref.sets) <= 40000 }

// reduction is one residual component's Weighted Set Cover instance.
type reduction struct {
	nElems int
	sets   [][]int32
	costs  []float64
}

// residualReductions preprocesses inst at level and reduces every residual
// component to Section 5.2's set system: one element per (query, uncovered
// property), numbered by query, then by bit; one set per alive classifier of
// finite cost, in order of first sighting, kept even when it covers nothing.
func residualReductions(t *testing.T, inst *core.Instance, level prep.Level) []reduction {
	t.Helper()
	r, err := prep.Run(inst, level)
	if err != nil {
		t.Fatalf("prep: %v", err)
	}
	var out []reduction
	for _, comp := range r.Components {
		var red reduction
		setOf := make(map[core.ClassifierID]int)
		for _, qi := range comp {
			covered := r.CoveredMask[qi]
			slot := make([]int32, inst.Query(qi).Len())
			for b := range slot {
				slot[b] = -1
				if covered&(1<<uint(b)) == 0 {
					slot[b] = int32(red.nElems)
					red.nElems++
				}
			}
			for _, qc := range inst.QueryClassifiers(qi) {
				id := qc.ID
				if r.Removed[id] || r.SelectedSet[id] || math.IsInf(r.EffCost[id], 0) {
					continue
				}
				s, ok := setOf[id]
				if !ok {
					s = len(red.sets)
					setOf[id] = s
					red.sets = append(red.sets, nil)
					red.costs = append(red.costs, r.EffCost[id])
				}
				for b := range slot {
					if qc.Mask&(1<<uint(b)) != 0 && slot[b] >= 0 {
						red.sets[s] = append(red.sets[s], slot[b])
					}
				}
			}
		}
		out = append(out, red)
	}
	return out
}

// hardnessSetCover draws an unweighted set cover with every element in two
// to four distinct sets, the setting of Theorem 5.1.
func hardnessSetCover(rng *rand.Rand, nElems, nSets int) *hardness.SetCover {
	sc := &hardness.SetCover{NumElements: nElems, Sets: make([][]int, nSets)}
	for e := 0; e < nElems; e++ {
		for _, si := range rng.Perm(nSets)[:min(2+rng.Intn(3), nSets)] {
			sc.Sets[si] = append(sc.Sets[si], e)
		}
	}
	return sc
}

// tieSets draws trial's instance of a family whose greedy ratios tie often:
// costs 1–3, and on odd trials every set priced at one or two times its size.
func tieSets(rng *rand.Rand, trial int) (int, [][]int32, []float64) {
	nElems := 5 + rng.Intn(40)
	sets, costs := randomSets(rng, nElems, 3+rng.Intn(60), 3)
	if trial%2 == 1 {
		for s, elems := range sets {
			costs[s] = float64((1 + rng.Intn(2)) * len(elems))
		}
	}
	return nElems, sets, costs
}

// distinctSets draws an instance whose costs are real-valued, so no two
// sets start at the same priority and greedy's buckets hold one set each.
func distinctSets(rng *rand.Rand) (int, [][]int32, []float64) {
	nElems := 5 + rng.Intn(40)
	sets, costs := randomSets(rng, nElems, 3+rng.Intn(60), 1)
	for s := range costs {
		costs[s] = 0.5 + 2.5*rng.Float64()
	}
	return nElems, sets, costs
}

// TestCSRMatchesReference requires the CSR instance, built both through
// AddSet and through NewCSR, to store the reference's set windows and
// element → sets lists in the same order, and every engine to return the
// reference engine's output, greedy's picks, cost and pops included: on
// random instances whose greedy ratios tie often, on random instances whose
// ratios all differ, and on every residual component of the three workload
// families and of both hardness reductions.
func TestCSRMatchesReference(t *testing.T) {
	check := func(t *testing.T, name string, nElems int, sets [][]int32, costs []float64) {
		in, ref := buildBoth(nElems, sets, costs)
		compareToRef(t, name, ref, lpSized(ref), in, csrOf(ref))
	}

	t.Run("ties", func(t *testing.T) {
		rng := rand.New(rand.NewSource(20))
		for trial := 0; trial < 300; trial++ {
			nElems, sets, costs := tieSets(rng, trial)
			check(t, "trial "+strconv.Itoa(trial), nElems, sets, costs)
		}
	})
	t.Run("distinct", func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		for trial := 0; trial < 300; trial++ {
			nElems, sets, costs := distinctSets(rng)
			check(t, "trial "+strconv.Itoa(trial), nElems, sets, costs)
		}
	})

	instances := map[string]*core.Instance{}
	for name, d := range map[string]*workload.Dataset{
		"synthetic": workload.Synthetic(300, 17),
		"bestbuy":   workload.BestBuy(17),
		"private":   workload.Private(17),
	} {
		inst, err := core.NewInstance(d.Universe, d.Queries[:min(300, len(d.Queries))], d.Costs, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		instances[name] = inst
	}
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 6; trial++ {
		r51, err := hardness.BuildTheorem51(hardnessSetCover(rng, 6+rng.Intn(5), 4+rng.Intn(5)))
		if err != nil {
			t.Fatalf("Theorem 5.1: %v", err)
		}
		instances["theorem51/"+strconv.Itoa(trial)] = r51.Inst
		sc := hardnessSetCover(rng, 6+rng.Intn(5), 4+rng.Intn(5))
		r52, err := hardness.BuildTheorem52(sc)
		if err != nil {
			t.Fatalf("Theorem 5.2: %v", err)
		}
		instances["theorem52/"+strconv.Itoa(trial)] = r52.Inst
	}
	for name, inst := range instances {
		t.Run(name, func(t *testing.T) {
			compared := 0
			for _, level := range []prep.Level{prep.Minimal, prep.Full} {
				for ci, red := range residualReductions(t, inst, level) {
					check(t, fmt.Sprintf("%v component %d", level, ci), red.nElems, red.sets, red.costs)
					compared++
				}
			}
			if compared == 0 {
				t.Fatal("preprocessing left no residual component to compare")
			}
		})
	}
}

// FuzzSetCoverCSR drives a CSR instance and the reference through the same
// AddSet calls, decoded from the input: element lists in any order and with
// repeats, zero-cost sets, and engine runs between additions, so an AddSet
// after an engine has indexed the instance is covered. After every engine
// run and at the end, storage and every engine must match the reference.
func FuzzSetCoverCSR(f *testing.F) {
	f.Add([]byte{4, 3, 2, 0, 2, 1, 2, 1, 3, 5, 1, 7, 1, 3, 2})
	f.Add([]byte{3, 5, 2, 0, 2, 2, 0, 4, 7, 1, 1, 1, 1, 2, 1, 1, 7})
	f.Add([]byte{8, 6, 7, 6, 5, 4, 3, 2, 3, 1, 0, 2, 7, 2, 1, 1, 2, 4, 3, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nElems := 1 + int(data[0]%12)
		in, ref := New(nElems), newRef(nElems)
		data = data[1:]
		for len(data) > 0 && in.NumSets() < 16 {
			op := data[0]
			data = data[1:]
			if op%8 == 7 {
				compareToRef(t, "between additions", ref, true, in)
				continue
			}
			n := min(int(op%8), len(data))
			elems := make([]int32, n)
			for i := range elems {
				elems[i] = int32(data[i]) % int32(nElems)
			}
			data = data[n:]
			cost := float64(op / 8 % 4)
			before := slices.Clone(elems)
			in.AddSet(elems, cost)
			ref.AddSet(elems, cost)
			if !slices.Equal(elems, before) {
				t.Fatalf("AddSet modified its input: %v became %v", before, elems)
			}
		}
		compareToRef(t, "final", ref, true, in)
	})
}

// TestNewCSRPanics: NewCSR rejects, like AddSet, every set that is not
// strictly ascending within the universe, every invalid cost, and offsets
// that do not frame the element array.
func TestNewCSRPanics(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		off     []int32
		elem    []int32
		costs   []float64
		message string
	}{
		{"unsorted", 3, []int32{0, 2}, []int32{1, 0}, []float64{1}, "not strictly ascending"},
		{"duplicated", 3, []int32{0, 1, 3}, []int32{2, 1, 1}, []float64{1, 1}, "not strictly ascending"},
		{"above range", 3, []int32{0, 2}, []int32{1, 3}, []float64{1}, "out of range"},
		{"negative element", 3, []int32{0, 2}, []int32{-1, 2}, []float64{1}, "not strictly ascending"},
		{"negative cost", 3, []int32{0, 1}, []int32{0}, []float64{-1}, "invalid cost"},
		{"NaN cost", 3, []int32{0, 1}, []int32{0}, []float64{math.NaN()}, "invalid cost"},
		{"infinite cost", 3, []int32{0, 1}, []int32{0}, []float64{math.Inf(1)}, "invalid cost"},
		{"offsets short", 3, []int32{0}, []int32{0}, []float64{1}, "set offsets"},
		{"offsets past the end", 3, []int32{0, 2}, []int32{0}, []float64{1}, "set offsets"},
		{"offsets descending", 3, []int32{0, 2, 1, 2}, []int32{0, 1}, []float64{1, 1, 1}, "offsets"},
		{"negative universe", -1, []int32{0}, nil, nil, "negative universe"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, tc.message) {
					t.Errorf("panic %q, want one mentioning %q", msg, tc.message)
				}
			}()
			NewCSR(tc.n, tc.off, tc.elem, tc.costs)
		})
	}
}

// TestEnginesConcurrentFirstUse runs greedy, primal-dual and LPValue from
// several goroutines on one freshly built instance, so the goroutines race
// to build the element → sets index and share the engine scratch pool. Run
// it under -race; every goroutine must get the sequential answers.
func TestEnginesConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	sets, costs := randomSets(rng, 60, 80, 9)
	build := func() *Instance {
		in := New(60)
		for s := range sets {
			in.AddSet(sets[s], costs[s])
		}
		return in
	}
	seq := build()
	wantG, wantGC, _ := seq.Greedy()
	wantP, wantPC, _ := seq.PrimalDual()
	wantLP, _ := seq.LPValue()

	for round := 0; round < 4; round++ {
		in := build()
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					switch (g + i) % 3 {
					case 0:
						if p, c, err := in.Greedy(); err != nil || !slices.Equal(p, wantG) || c != wantGC {
							t.Errorf("round %d goroutine %d: greedy %v %v %v, want %v %v", round, g, p, c, err, wantG, wantGC)
						}
					case 1:
						if p, c, err := in.PrimalDual(); err != nil || !slices.Equal(p, wantP) || c != wantPC {
							t.Errorf("round %d goroutine %d: primal-dual %v %v %v, want %v %v", round, g, p, c, err, wantP, wantPC)
						}
					case 2:
						if v, err := in.LPValue(); err != nil || v != wantLP {
							t.Errorf("round %d goroutine %d: LPValue %v %v, want %v", round, g, v, err, wantLP)
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
