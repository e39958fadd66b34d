// Package setcover implements the Weighted Set Cover (WSC) algorithms that
// back the paper's Algorithm 3: the Chvátal greedy algorithm with a lazy
// priority queue (refs [6, 9]; (ln Δ + 1)-approximation), and the classical
// f-approximation from Vazirani [50] in two interchangeable forms —
// primal-dual (linear time, used at scale) and explicit LP-relaxation
// rounding on the package lp simplex solver (used on small and medium
// instances and in ablations). Combining greedy with either f-approximate
// algorithm yields the paper's min{ln Δ + 1, f} guarantee (Theorem 2.6).
package setcover

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/bitset"
	"repro/internal/lp"
	"repro/internal/obs"
)

// SpanRun is the span each set-cover engine run emits (see internal/obs).
// Attrs: "engine" ("greedy", "primal-dual", "lp-rounding"), "sets" (picked),
// "cost", and engine-internal counters — "pops" (greedy heap pops), "tight"
// (primal-dual sets tight before reverse-delete).
const SpanRun = "setcover"

// Instance is a weighted set cover instance: a universe of elements
// 0..numElements−1 and a collection of sets, each with a non-negative cost.
type Instance struct {
	numElements int
	sets        [][]int32
	costs       []float64
	elemSets    [][]int32 // element -> sets containing it
}

// New returns an empty instance over numElements elements.
func New(numElements int) *Instance {
	if numElements < 0 {
		panic("setcover: negative universe size")
	}
	return &Instance{
		numElements: numElements,
		elemSets:    make([][]int32, numElements),
	}
}

// AddSet adds a set with the given elements and cost, returning its index.
// Element lists may be in any order; duplicates are removed on insert (the
// stored set is sorted and unique). Without the dedup a repeated element
// would inflate greedy's cost-per-newly-covered priorities, double-count in
// Degree and reverseDelete's cover counts, and register the set twice in the
// element's membership list — silently degrading solution quality rather
// than failing. elements is not modified.
func (in *Instance) AddSet(elements []int32, cost float64) int {
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
			// First membership: reserve a few slots up front — element
			// frequency f is ≥ 2 on all but degenerate instances, so this
			// halves the append-regrowth churn on the construction path.
			in.elemSets[e] = make([]int32, 0, 4)
		}
		in.elemSets[e] = append(in.elemSets[e], int32(idx))
	}
	in.sets = append(in.sets, uniq)
	in.costs = append(in.costs, cost)
	return idx
}

// NumSets returns the number of sets.
func (in *Instance) NumSets() int { return len(in.sets) }

// NumElements returns the universe size.
func (in *Instance) NumElements() int { return in.numElements }

// Set returns the element list of set s. The returned slice must not be
// modified.
func (in *Instance) Set(s int) []int32 { return in.sets[s] }

// Cost returns the cost of set s.
func (in *Instance) Cost(s int) float64 { return in.costs[s] }

// Frequency returns f: the maximum number of sets any element belongs to.
func (in *Instance) Frequency() int {
	f := 0
	for _, ss := range in.elemSets {
		if len(ss) > f {
			f = len(ss)
		}
	}
	return f
}

// Degree returns Δ: the cardinality of the largest set.
func (in *Instance) Degree() int {
	d := 0
	for _, s := range in.sets {
		if len(s) > d {
			d = len(s)
		}
	}
	return d
}

// checkCoverable verifies every element belongs to at least one set.
func (in *Instance) checkCoverable() error {
	for e, ss := range in.elemSets {
		if len(ss) == 0 {
			return fmt.Errorf("setcover: element %d belongs to no set; no cover exists", e)
		}
	}
	return nil
}

// CoverCost sums the costs of the given set indices.
func (in *Instance) CoverCost(sets []int) float64 {
	var c float64
	for _, s := range sets {
		c += in.costs[s]
	}
	return c
}

// IsCover reports whether the given sets cover every element.
func (in *Instance) IsCover(sets []int) bool {
	covered := bitset.New(in.numElements)
	cnt := 0
	for _, s := range sets {
		for _, e := range in.sets[s] {
			if !covered.TestAndSet(int(e)) {
				cnt++
			}
		}
	}
	return cnt == in.numElements
}

// greedyItem is a priority-queue entry with a possibly stale priority.
type greedyItem struct {
	set      int32
	priority float64 // cost / uncovered-count at evaluation time (lower = better)
}

// greedyHeap is a binary min-heap of greedyItems by priority. Its init,
// push and pop perform container/heap's Init, Push and Pop step for step,
// sift comparisons and swaps included, so picks, pop counts and tie-breaks
// are the ones container/heap gives, without its interface calls and the
// boxing of every pushed and popped item.
type greedyHeap []greedyItem

func (h greedyHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i, len(h))
	}
}

func (h *greedyHeap) push(it greedyItem) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

func (h *greedyHeap) pop() greedyItem {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	*h = old[:n]
	return old[n]
}

func (h greedyHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].priority < h[i].priority) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h greedyHeap) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].priority < h[j1].priority {
			j = j2 // right child
		}
		if !(h[j].priority < h[i].priority) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// Greedy runs Chvátal's greedy algorithm: repeatedly pick the set minimizing
// cost per newly covered element, until all elements are covered. The lazy
// priority queue re-evaluates an entry only when popped (a set's coverage
// count only decreases, so a stale priority is a lower bound and the re-pushed
// entry stays correct), giving the O(log m · Σ|s|) bound of [9]. The
// approximation factor is H(Δ) ≤ ln Δ + 1.
func (in *Instance) Greedy() ([]int, float64, error) {
	return in.GreedyCtx(context.Background())
}

// GreedyCtx is Greedy with cancellation: the selection loop checks the
// context every 256 heap pops and returns ctx.Err() when it fires,
// discarding the partial cover.
func (in *Instance) GreedyCtx(ctx context.Context) ([]int, float64, error) {
	sp, ctx := obs.StartChild(ctx, SpanRun, obs.Str("engine", "greedy"))
	picked, total, pops, err := in.greedyCtx(ctx)
	if err == nil {
		sp.SetAttr(obs.Int("pops", pops), obs.Int("sets", len(picked)), obs.F64("cost", total))
	}
	sp.EndErr(err)
	return picked, total, err
}

func (in *Instance) greedyCtx(ctx context.Context) ([]int, float64, int, error) {
	if err := in.checkCoverable(); err != nil {
		return nil, 0, 0, err
	}
	done := ctx.Done()
	covered := bitset.New(in.numElements)
	h := make(greedyHeap, 0, len(in.sets))
	for s, elems := range in.sets {
		if len(elems) > 0 {
			h = append(h, greedyItem{set: int32(s), priority: in.costs[s] / float64(len(elems))})
		}
	}
	h.init()

	remaining := in.numElements
	var picked []int
	var total float64
	pops := 0
	for ; remaining > 0; pops++ {
		if done != nil && pops&255 == 0 {
			select {
			case <-done:
				return nil, 0, pops, ctx.Err()
			default:
			}
		}
		if len(h) == 0 {
			return nil, 0, pops, fmt.Errorf("setcover: internal error: queue drained with %d elements uncovered", remaining)
		}
		it := h.pop()
		s := it.set
		// Recompute the true uncovered count lazily. Coverage only shrinks,
		// so a popped priority is a lower bound on the set's true priority:
		// select only if the entry is still fresh, otherwise re-push the
		// corrected entry.
		cnt := int32(0)
		for _, e := range in.sets[s] {
			if !covered.Test(int(e)) {
				cnt++
			}
		}
		if cnt == 0 {
			continue
		}
		current := in.costs[s] / float64(cnt)
		if current > it.priority+1e-15 {
			h.push(greedyItem{set: s, priority: current})
			continue
		}
		picked = append(picked, int(s))
		total += in.costs[s]
		for _, e := range in.sets[s] {
			if !covered.TestAndSet(int(e)) {
				remaining--
			}
		}
	}
	return picked, total, pops, nil
}

// PrimalDual runs the Bar-Yehuda–Even primal-dual algorithm: for each
// uncovered element, raise its dual variable until some containing set
// becomes tight, and select sets as they become tight. Runs in O(Σ|s|) and
// guarantees an f-approximation — the "LP-based algorithm [50]" guarantee of
// Theorem 2.6 without solving an LP. A reverse-delete pass then drops
// redundant selected sets (feasibility-preserving, so the guarantee stands).
func (in *Instance) PrimalDual() ([]int, float64, error) {
	return in.PrimalDualCtx(context.Background())
}

// PrimalDualCtx is PrimalDual with cancellation: the element loop checks the
// context every 1024 elements and returns ctx.Err() when it fires.
func (in *Instance) PrimalDualCtx(ctx context.Context) ([]int, float64, error) {
	sp, ctx := obs.StartChild(ctx, SpanRun, obs.Str("engine", "primal-dual"))
	picked, cost, tight, err := in.primalDualCtx(ctx)
	if err == nil {
		sp.SetAttr(obs.Int("tight", tight), obs.Int("sets", len(picked)), obs.F64("cost", cost))
	}
	sp.EndErr(err)
	return picked, cost, err
}

func (in *Instance) primalDualCtx(ctx context.Context) ([]int, float64, int, error) {
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
		// Raise y_e by the minimum residual among sets containing e.
		delta := math.Inf(1)
		for _, s := range in.elemSets[e] {
			if !tight.Test(int(s)) && residual[s] < delta {
				delta = residual[s]
			}
		}
		if math.IsInf(delta, 1) {
			// All containing sets already tight; e is covered by one of
			// them — but covered would have said so. Unreachable.
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

// reverseDelete drops sets that are redundant given the rest, scanning in
// reverse selection order. The result remains a cover, preserves selection
// order, and is deterministic.
func (in *Instance) reverseDelete(picked []int) []int {
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

// LPValue solves the LP relaxation of the covering program and returns its
// optimal objective — a certified lower bound on every integral cover's
// cost (weak duality). Dense simplex underneath: intended for instances up
// to a few thousand sets.
func (in *Instance) LPValue() (float64, error) {
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

// DualCertificate solves the covering LP and returns its value together
// with a dual-feasible vector y (one value per element) that *certifies*
// the bound independently of the solver: y ≥ 0 and Σ_{e∈S} y_e ≤ cost(S)
// for every set imply, by weak duality, that every integral cover costs at
// least Σ_e y_e. The certificate is re-verified here before being returned;
// callers can re-check it themselves with nothing but additions and
// comparisons.
func (in *Instance) DualCertificate() (float64, []float64, error) {
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
	// Independent verification, with tiny negatives clamped (simplex noise).
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

// LPRounding solves the LP relaxation of the covering program with the
// package lp simplex solver and selects every set with x_S ≥ 1/f. By the
// standard rounding argument this is feasible and costs at most f·OPT
// (Vazirani [50]). It is exponential-free but dense: intended for instances
// up to a few thousand sets; use PrimalDual beyond that.
func (in *Instance) LPRounding() ([]int, float64, error) {
	return in.LPRoundingCtx(context.Background())
}

// LPRoundingCtx is LPRounding with cancellation: the context is handed to
// the underlying simplex solver's pivot loop.
func (in *Instance) LPRoundingCtx(ctx context.Context) ([]int, float64, error) {
	sp, ctx := obs.StartChild(ctx, SpanRun, obs.Str("engine", "lp-rounding"))
	picked, cost, err := in.lpRoundingCtx(ctx)
	if err == nil {
		sp.SetAttr(obs.Int("sets", len(picked)), obs.F64("cost", cost))
	}
	sp.EndErr(err)
	return picked, cost, err
}

func (in *Instance) lpRoundingCtx(ctx context.Context) ([]int, float64, error) {
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
