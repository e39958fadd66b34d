package setcover

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/bitset"
	"repro/internal/lp"
)

// refInstance is the slice-of-slices Instance the CSR layout replaced, kept
// statement for statement with its engines as the reference the CSR kernel
// must match: one sorted element slice per set, element → sets lists grown
// by append, and engine arrays allocated per call. Its greedy keeps no
// queue: it scans every set for greedy's choice.
type refInstance struct {
	numElements int
	sets        [][]int32
	costs       []float64
	elemSets    [][]int32 // element -> sets containing it
}

func newRef(numElements int) *refInstance {
	if numElements < 0 {
		panic("setcover: negative universe size")
	}
	return &refInstance{
		numElements: numElements,
		elemSets:    make([][]int32, numElements),
	}
}

func (in *refInstance) AddSet(elements []int32, cost float64) int {
	if cost < 0 || math.IsNaN(cost) || math.IsInf(cost, 0) {
		panic(fmt.Sprintf("setcover: invalid cost %v", cost))
	}
	idx := len(in.sets)
	es := make([]int32, len(elements))
	copy(es, elements)
	slices.Sort(es)
	uniq := es[:0]
	for i, e := range es {
		if e < 0 || int(e) >= in.numElements {
			panic(fmt.Sprintf("setcover: element %d out of range [0,%d)", e, in.numElements))
		}
		if i > 0 && e == es[i-1] {
			continue
		}
		uniq = append(uniq, e)
		if cap(in.elemSets[e]) == 0 {
			in.elemSets[e] = make([]int32, 0, 4)
		}
		in.elemSets[e] = append(in.elemSets[e], int32(idx))
	}
	in.sets = append(in.sets, uniq)
	in.costs = append(in.costs, cost)
	return idx
}

func (in *refInstance) Frequency() int {
	f := 0
	for _, ss := range in.elemSets {
		if len(ss) > f {
			f = len(ss)
		}
	}
	return f
}

func (in *refInstance) Degree() int {
	d := 0
	for _, s := range in.sets {
		if len(s) > d {
			d = len(s)
		}
	}
	return d
}

func (in *refInstance) checkCoverable() error {
	for e, ss := range in.elemSets {
		if len(ss) == 0 {
			return fmt.Errorf("setcover: element %d belongs to no set; no cover exists", e)
		}
	}
	return nil
}

func (in *refInstance) CoverCost(sets []int) float64 {
	var c float64
	for _, s := range sets {
		c += in.costs[s]
	}
	return c
}

// greedy is greedy's choice rule with no queue. Every set with an element
// is queued at its cost per element, its stored priority, and each step
// scans every queued set for the lowest (stored priority, set number). That
// set leaves the queue: it is dropped when it covers nothing new, re-queued
// at its recomputed priority when that exceeds the stored one by more than
// 1e-15, and picked otherwise.
func (in *refInstance) greedy() ([]int, float64, int, error) {
	if err := in.checkCoverable(); err != nil {
		return nil, 0, 0, err
	}
	queued := make([]bool, len(in.sets))
	stored := make([]float64, len(in.sets))
	for s, elems := range in.sets {
		if len(elems) > 0 {
			queued[s], stored[s] = true, in.costs[s]/float64(len(elems))
		}
	}
	covered := bitset.New(in.numElements)
	remaining := in.numElements
	var picked []int
	var total float64
	pops := 0
	for ; remaining > 0; pops++ {
		s := -1
		for t := range in.sets {
			if queued[t] && (s < 0 || stored[t] < stored[s]) {
				s = t
			}
		}
		if s < 0 {
			return nil, 0, pops, fmt.Errorf("setcover: internal error: queue drained with %d elements uncovered", remaining)
		}
		queued[s] = false
		cnt := 0
		for _, e := range in.sets[s] {
			if !covered.Test(int(e)) {
				cnt++
			}
		}
		if cnt == 0 {
			continue
		}
		if current := in.costs[s] / float64(cnt); current > stored[s]+1e-15 {
			queued[s], stored[s] = true, current
			continue
		}
		picked = append(picked, s)
		total += in.costs[s]
		for _, e := range in.sets[s] {
			if !covered.TestAndSet(int(e)) {
				remaining--
			}
		}
	}
	return picked, total, pops, nil
}

func (in *refInstance) primalDualCtx(ctx context.Context) ([]int, float64, int, error) {
	if err := in.checkCoverable(); err != nil {
		return nil, 0, 0, err
	}
	done := ctx.Done()
	residual := append([]float64(nil), in.costs...)
	tight := bitset.New(len(in.sets))
	covered := bitset.New(in.numElements)

	var picked []int
	for e := 0; e < in.numElements; e++ {
		if done != nil && e&1023 == 0 {
			select {
			case <-done:
				return nil, 0, 0, ctx.Err()
			default:
			}
		}
		if covered.Test(e) {
			continue
		}
		delta := math.Inf(1)
		for _, s := range in.elemSets[e] {
			if !tight.Test(int(s)) && residual[s] < delta {
				delta = residual[s]
			}
		}
		if math.IsInf(delta, 1) {
			return nil, 0, 0, fmt.Errorf("setcover: internal error at element %d", e)
		}
		for _, s := range in.elemSets[e] {
			if tight.Test(int(s)) {
				continue
			}
			residual[s] -= delta
			if residual[s] <= 1e-12 {
				tight.Set(int(s))
				picked = append(picked, int(s))
				for _, e2 := range in.sets[s] {
					covered.Set(int(e2))
				}
			}
		}
	}

	raw := len(picked)
	picked = in.reverseDelete(picked)
	return picked, in.CoverCost(picked), raw, nil
}

func (in *refInstance) reverseDelete(picked []int) []int {
	coverCount := make([]int32, in.numElements)
	for _, s := range picked {
		for _, e := range in.sets[s] {
			coverCount[e]++
		}
	}
	removed := bitset.New(len(picked))
	for i := len(picked) - 1; i >= 0; i-- {
		s := picked[i]
		redundant := true
		for _, e := range in.sets[s] {
			if coverCount[e] == 1 {
				redundant = false
				break
			}
		}
		if redundant {
			removed.Set(i)
			for _, e := range in.sets[s] {
				coverCount[e]--
			}
		}
	}
	out := picked[:0]
	for i, s := range picked {
		if !removed.Test(i) {
			out = append(out, s)
		}
	}
	return out
}

func (in *refInstance) LPValue() (float64, error) {
	if err := in.checkCoverable(); err != nil {
		return 0, err
	}
	if in.numElements == 0 {
		return 0, nil
	}
	p := lp.NewProblem(len(in.sets))
	if err := p.SetObjective(in.costs); err != nil {
		return 0, err
	}
	for e := 0; e < in.numElements; e++ {
		vars := make([]int, len(in.elemSets[e]))
		ones := make([]float64, len(vars))
		for i, s := range in.elemSets[e] {
			vars[i] = int(s)
			ones[i] = 1
		}
		if err := p.AddSparseConstraint(vars, ones, lp.GE, 1); err != nil {
			return 0, err
		}
	}
	sol, err := p.Solve()
	if err != nil {
		return 0, err
	}
	if sol.Status != lp.Optimal {
		return 0, fmt.Errorf("setcover: LP relaxation returned %v", sol.Status)
	}
	return sol.Objective, nil
}

func (in *refInstance) DualCertificate() (float64, []float64, error) {
	if err := in.checkCoverable(); err != nil {
		return 0, nil, err
	}
	if in.numElements == 0 {
		return 0, nil, nil
	}
	p := lp.NewProblem(len(in.sets))
	if err := p.SetObjective(in.costs); err != nil {
		return 0, nil, err
	}
	for e := 0; e < in.numElements; e++ {
		vars := make([]int, len(in.elemSets[e]))
		ones := make([]float64, len(vars))
		for i, s := range in.elemSets[e] {
			vars[i] = int(s)
			ones[i] = 1
		}
		if err := p.AddSparseConstraint(vars, ones, lp.GE, 1); err != nil {
			return 0, nil, err
		}
	}
	sol, err := p.Solve()
	if err != nil {
		return 0, nil, err
	}
	if sol.Status != lp.Optimal {
		return 0, nil, fmt.Errorf("setcover: LP relaxation returned %v", sol.Status)
	}
	y := sol.Duals
	var bound float64
	for e, v := range y {
		if v < -1e-6 {
			return 0, nil, fmt.Errorf("setcover: dual value %v for element %d is negative", v, e)
		}
		if v < 0 {
			y[e] = 0
			v = 0
		}
		bound += v
	}
	for s, elems := range in.sets {
		var sum float64
		for _, e := range elems {
			sum += y[e]
		}
		if sum > in.costs[s]+1e-6*(1+in.costs[s]) {
			return 0, nil, fmt.Errorf("setcover: dual certificate violates set %d: %v > %v", s, sum, in.costs[s])
		}
	}
	return bound, y, nil
}

func (in *refInstance) lpRoundingCtx(ctx context.Context) ([]int, float64, error) {
	if err := in.checkCoverable(); err != nil {
		return nil, 0, err
	}
	if len(in.sets) == 0 {
		if in.numElements == 0 {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("setcover: no sets")
	}
	f := in.Frequency()
	p := lp.NewProblem(len(in.sets))
	if err := p.SetObjective(in.costs); err != nil {
		return nil, 0, err
	}
	for e := 0; e < in.numElements; e++ {
		vars := make([]int, len(in.elemSets[e]))
		ones := make([]float64, len(vars))
		for i, s := range in.elemSets[e] {
			vars[i] = int(s)
			ones[i] = 1
		}
		if err := p.AddSparseConstraint(vars, ones, lp.GE, 1); err != nil {
			return nil, 0, err
		}
	}
	sol, err := p.SolveCtx(ctx)
	if err != nil {
		return nil, 0, err
	}
	if sol.Status != lp.Optimal {
		return nil, 0, fmt.Errorf("setcover: LP relaxation returned %v", sol.Status)
	}
	threshold := 1/float64(f) - 1e-9
	var picked []int
	for s, x := range sol.X {
		if x >= threshold {
			picked = append(picked, s)
		}
	}
	picked = in.reverseDelete(picked)
	return picked, in.CoverCost(picked), nil
}
