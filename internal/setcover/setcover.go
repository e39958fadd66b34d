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
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/bitset"
	"repro/internal/lp"
	"repro/internal/obs"
)

// SpanRun is the span each set-cover engine run emits (see internal/obs).
// Attrs: "engine" ("greedy", "primal-dual", "lp-rounding"), "sets" (picked),
// "cost", and engine-internal counters — "pops" (greedy queue pops), "tight"
// (primal-dual sets tight before reverse-delete).
const SpanRun = "setcover"

// Instance is a weighted set cover instance: a universe of elements
// 0..numElements−1 and a collection of sets, each with a non-negative cost.
//
// The sets are stored in CSR form (compressed sparse rows): set s is the
// window setElem[setOff[s]:setOff[s+1]] of one element array, strictly
// ascending. The element → sets lists are a second CSR over the same
// incidences, built on first use by the engines that read them and rebuilt
// after an AddSet. Engines may run concurrently on an instance that no
// AddSet is modifying.
type Instance struct {
	numElements int
	setOff      []int32 // len NumSets()+1; setOff[0] = 0
	setElem     []int32
	costs       []float64

	// Element e's sets are elemSet[elemOff[e]:elemOff[e+1]], ascending.
	indexOnce sync.Once
	elemOff   []int32
	elemSet   []int32
}

// New returns an empty instance over numElements elements.
func New(numElements int) *Instance {
	if numElements < 0 {
		panic("setcover: negative universe size")
	}
	return &Instance{numElements: numElements, setOff: []int32{0}}
}

// NewCSR returns the instance over numElements elements whose set s is
// setElem[setOff[s]:setOff[s+1]] at cost costs[s]. The instance keeps the
// three arrays; the caller must not modify them afterwards. setOff holds
// len(costs)+1 ascending offsets from 0 to len(setElem), every set is
// strictly ascending within [0, numElements), and every cost is finite and
// non-negative; NewCSR checks all of it in one pass and panics otherwise,
// as AddSet does.
func NewCSR(numElements int, setOff, setElem []int32, costs []float64) *Instance {
	if numElements < 0 {
		panic("setcover: negative universe size")
	}
	if len(setOff) != len(costs)+1 || setOff[0] != 0 || int(setOff[len(costs)]) != len(setElem) {
		panic(fmt.Sprintf("setcover: %d set offsets for %d sets and %d elements", len(setOff), len(costs), len(setElem)))
	}
	for s, c := range costs {
		checkCost(c)
		lo, hi := setOff[s], setOff[s+1]
		if hi < lo || int(hi) > len(setElem) {
			panic(fmt.Sprintf("setcover: set %d has offsets [%d,%d)", s, lo, hi))
		}
		prev := int32(-1)
		for _, e := range setElem[lo:hi] {
			if e <= prev {
				panic(fmt.Sprintf("setcover: set %d is not strictly ascending at element %d", s, e))
			}
			if int(e) >= numElements {
				panic(fmt.Sprintf("setcover: element %d out of range [0,%d)", e, numElements))
			}
			prev = e
		}
	}
	return &Instance{numElements: numElements, setOff: setOff, setElem: setElem, costs: costs}
}

// checkCost panics on a cost no set may carry.
func checkCost(cost float64) {
	if cost < 0 || math.IsNaN(cost) || math.IsInf(cost, 0) {
		panic(fmt.Sprintf("setcover: invalid cost %v", cost))
	}
}

// AddSet adds a set with the given elements and cost, returning its index.
// Element lists may be in any order; duplicates are removed on insert (the
// stored set is sorted and unique). Without the dedup a repeated element
// would inflate greedy's cost-per-newly-covered priorities, double-count in
// Degree and reverseDelete's cover counts, and register the set twice in the
// element's membership list — silently degrading solution quality rather
// than failing. elements is not modified; the set is appended to the flat
// arrays and sorted there only when it is not already strictly ascending.
func (in *Instance) AddSet(elements []int32, cost float64) int {
	checkCost(cost)
	ascending := true
	for i, e := range elements {
		if e < 0 || int(e) >= in.numElements {
			panic(fmt.Sprintf("setcover: element %d out of range [0,%d)", e, in.numElements))
		}
		if i > 0 && e <= elements[i-1] {
			ascending = false
		}
	}
	lo := len(in.setElem)
	in.setElem = append(in.setElem, elements...)
	if !ascending {
		w := in.setElem[lo:]
		slices.Sort(w)
		in.setElem = in.setElem[:lo+len(slices.Compact(w))]
	}
	in.setOff = append(in.setOff, int32(len(in.setElem)))
	in.costs = append(in.costs, cost)
	// The element → sets lists no longer hold every set.
	in.indexOnce = sync.Once{}
	in.elemOff, in.elemSet = nil, nil
	return len(in.costs) - 1
}

// NumSets returns the number of sets.
func (in *Instance) NumSets() int { return len(in.costs) }

// NumElements returns the universe size.
func (in *Instance) NumElements() int { return in.numElements }

// Set returns the element list of set s, ascending. The returned slice must
// not be modified.
func (in *Instance) Set(s int) []int32 {
	hi := in.setOff[s+1]
	return in.setElem[in.setOff[s]:hi:hi]
}

// ElementSets returns the sets containing element e, ascending. The
// returned slice must not be modified.
func (in *Instance) ElementSets(e int) []int32 {
	in.index()
	hi := in.elemOff[e+1]
	return in.elemSet[in.elemOff[e]:hi:hi]
}

// Cost returns the cost of set s.
func (in *Instance) Cost(s int) float64 { return in.costs[s] }

// index builds the element → sets lists once, count-then-fill from the set
// windows: elemOff[e+1] first counts element e's sets, the prefix sums turn
// the counts into window starts, and filling in set order advances each
// start to its window's end — the next window's start — so one shift by a
// slot restores the offsets and every list is in ascending set order.
func (in *Instance) index() {
	in.indexOnce.Do(func() {
		off := make([]int32, in.numElements+1)
		for _, e := range in.setElem {
			off[e+1]++
		}
		for e := 1; e < len(off); e++ {
			off[e] += off[e-1]
		}
		sets := make([]int32, len(in.setElem))
		for s := range in.costs {
			for _, e := range in.setElem[in.setOff[s]:in.setOff[s+1]] {
				sets[off[e]] = int32(s)
				off[e]++
			}
		}
		copy(off[1:], off)
		off[0] = 0
		in.elemOff, in.elemSet = off, sets
	})
}

// Frequency returns f: the maximum number of sets any element belongs to.
func (in *Instance) Frequency() int {
	in.index()
	f := int32(0)
	for e := 0; e < in.numElements; e++ {
		f = max(f, in.elemOff[e+1]-in.elemOff[e])
	}
	return int(f)
}

// Degree returns Δ: the cardinality of the largest set.
func (in *Instance) Degree() int {
	d := int32(0)
	for s := range in.costs {
		d = max(d, in.setOff[s+1]-in.setOff[s])
	}
	return int(d)
}

// checkCoverable verifies every element belongs to at least one set.
func (in *Instance) checkCoverable() error {
	in.index()
	for e := 0; e < in.numElements; e++ {
		if in.elemOff[e+1] == in.elemOff[e] {
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
		for _, e := range in.Set(s) {
			if !covered.TestAndSet(int(e)) {
				cnt++
			}
		}
	}
	return cnt == in.numElements
}

// scratch is one engine call's working memory: greedy's queue, the covered
// and tight bitsets, primal-dual's residual costs, and reverseDelete's cover
// counts and removal marks. Each call checks its own out of scratchPool, so
// concurrent engine calls never share one, and a warm pool leaves an engine
// call allocating only the cover it returns.
type scratch struct {
	queue    greedyQueue
	covered  bitset.Bitset
	tight    bitset.Bitset
	removed  bitset.Bitset
	residual []float64
	count    []int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// greedyItem is a queue entry with a possibly stale priority.
type greedyItem struct {
	set      int32
	priority float64 // cost / uncovered-count at evaluation time (lower = better)
}

// before reports whether a precedes b in greedy's order: lower priority
// first, then lower set number. A set has at most one entry queued, so no
// two entries are equal.
func (a greedyItem) before(b greedyItem) bool {
	return a.priority < b.priority || a.priority == b.priority && a.set < b.set
}

// greedyQueue serves greedy's entries lowest (priority, set) first. The
// reduction's prices are integers and most sets have one to three elements,
// so the starting priorities take few distinct values. Every set's first
// entry therefore goes into a bucket for its exact starting priority, in
// ascending set order, and the buckets are laid out back to back in
// priority order: a counting sort with no comparison between sets. An
// entry re-queued at a new priority waits in a small binary heap, and a pop
// takes whichever comes first, the head of the bucket run or the heap's
// top.
type greedyQueue struct {
	// order lists the sets with at least one element by (starting
	// priority, set): the buckets back to back. The head is order[next], in
	// bucket rank[b], whose sets start at priority prio[rank[b]] and whose
	// run ends before order[end[rank[b]]].
	order     []int32
	next      int32
	b         int
	rank, end []int32
	prio      []float64
	bucketOf  []int32 // by set: its bucket, −1 for an empty set
	stale     []greedyItem
}

// init queues every set with at least one element at its cost per element.
// Buckets are found through an open-addressing table of at least twice the
// set count, keyed by the priority's bits; the table is then reused as
// order.
func (q *greedyQueue) init(in *Instance) {
	m := len(in.costs)
	size := 2
	for size < 2*m {
		size <<= 1
	}
	shift := uint(64 - bits.TrailingZeros(uint(size)))
	table := resized(q.order, size)
	clear(table) // slot: bucket + 1, 0 when free
	bucketOf := resized(q.bucketOf, m)
	prio, end := q.prio[:0], q.end[:0]
	for s, c := range in.costs {
		n := in.setOff[s+1] - in.setOff[s]
		if n == 0 {
			bucketOf[s] = -1
			continue
		}
		p := c / float64(n)
		if p == 0 {
			p = 0 // one bucket for −0 and +0, which compare equal
		}
		// The high bits of the product: an integer priority's low mantissa
		// bits are all zero.
		i := int((math.Float64bits(p) * 0x9e3779b97f4a7c15) >> shift)
		for {
			b := table[i] - 1
			if b < 0 {
				b = int32(len(prio))
				table[i] = b + 1
				prio = append(prio, p)
				end = append(end, 0)
			}
			if prio[b] == p {
				bucketOf[s] = b
				end[b]++
				break
			}
			i = (i + 1) & (size - 1)
		}
	}
	rank := resized(q.rank, len(prio))
	for b := range rank {
		rank[b] = int32(b)
	}
	slices.SortFunc(rank, func(a, b int32) int { return cmp.Compare(prio[a], prio[b]) })
	// end[b] becomes bucket b's start, then fills up to its end.
	at := int32(0)
	for _, b := range rank {
		at, end[b] = at+end[b], at
	}
	order := table[:at]
	for s, b := range bucketOf {
		if b >= 0 {
			order[end[b]] = int32(s)
			end[b]++
		}
	}
	q.order, q.next, q.b = order, 0, 0
	q.rank, q.end, q.prio, q.bucketOf = rank, end, prio, bucketOf
	q.stale = q.stale[:0]
}

// pop removes and returns the first queued entry in (priority, set) order;
// ok is false when the queue is empty.
func (q *greedyQueue) pop() (it greedyItem, ok bool) {
	if int(q.next) < len(q.order) {
		b := q.rank[q.b]
		head := greedyItem{set: q.order[q.next], priority: q.prio[b]}
		if len(q.stale) == 0 || head.before(q.stale[0]) {
			if q.next++; q.next == q.end[b] {
				q.b++
			}
			return head, true
		}
	}
	if len(q.stale) == 0 {
		return greedyItem{}, false
	}
	h := q.stale
	it, h[0] = h[0], h[len(h)-1]
	h = h[:len(h)-1]
	for i := 0; ; {
		j := 2*i + 1
		if j >= len(h) {
			break
		}
		if j+1 < len(h) && h[j+1].before(h[j]) {
			j++
		}
		if !h[j].before(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	q.stale = h
	return it, true
}

// push re-queues a set at a new priority.
func (q *greedyQueue) push(it greedyItem) {
	h := append(q.stale, it)
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !h[j].before(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	q.stale = h
}

// resized returns s with length n, reusing its array when it is large
// enough. The elements' values are unspecified.
func resized(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// Greedy runs Chvátal's greedy algorithm: repeatedly pick the set minimizing
// cost per newly covered element, until all elements are covered. The lazy
// priority queue re-evaluates an entry only when popped (a set's coverage
// count only decreases, so a stale priority is a lower bound and the
// re-queued entry stays correct), giving the O(log m · Σ|s|) bound of [9].
// Each step pops the queued entry lowest in (stored priority, set number).
// It picks the set when the recomputed priority is within 1e-15 of the
// stored one, re-queues it at the recomputed priority when that is higher,
// and drops it when the set covers nothing new, so the picks follow from
// the instance alone. The approximation factor is H(Δ) ≤ ln Δ + 1.
func (in *Instance) Greedy() ([]int, float64, error) {
	return in.GreedyCtx(context.Background())
}

// GreedyCtx is Greedy with cancellation: the selection loop checks the
// context every 256 queue pops and returns ctx.Err() when it fires,
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
	ws := scratchPool.Get().(*scratch)
	defer scratchPool.Put(ws)
	done := ctx.Done()
	covered := ws.covered.Grow(in.numElements)
	ws.covered = covered
	q := &ws.queue
	q.init(in)

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
		it, ok := q.pop()
		if !ok {
			return nil, 0, pops, fmt.Errorf("setcover: internal error: queue drained with %d elements uncovered", remaining)
		}
		s := it.set
		elems := in.setElem[in.setOff[s]:in.setOff[s+1]]
		// Recompute the true uncovered count lazily. Coverage only shrinks,
		// so a popped priority is a lower bound on the set's true priority:
		// select only if the entry is still fresh, otherwise re-push the
		// corrected entry.
		cnt := int32(0)
		for _, e := range elems {
			if !covered.Test(int(e)) {
				cnt++
			}
		}
		if cnt == 0 {
			continue
		}
		current := in.costs[s] / float64(cnt)
		if current > it.priority+1e-15 {
			q.push(greedyItem{set: s, priority: current})
			continue
		}
		picked = append(picked, int(s))
		total += in.costs[s]
		for _, e := range elems {
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
	ws := scratchPool.Get().(*scratch)
	defer scratchPool.Put(ws)
	done := ctx.Done()
	residual := append(ws.residual[:0], in.costs...)
	tight := ws.tight.Grow(len(in.costs))
	covered := ws.covered.Grow(in.numElements)
	ws.residual, ws.tight, ws.covered = residual, tight, covered

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
		sets := in.elemSet[in.elemOff[e]:in.elemOff[e+1]]
		// Raise y_e by the minimum residual among sets containing e.
		delta := math.Inf(1)
		for _, s := range sets {
			if !tight.Test(int(s)) && residual[s] < delta {
				delta = residual[s]
			}
		}
		if math.IsInf(delta, 1) {
			// All containing sets already tight; e is covered by one of
			// them — but covered would have said so. Unreachable.
			return nil, 0, 0, fmt.Errorf("setcover: internal error at element %d", e)
		}
		for _, s := range sets {
			if tight.Test(int(s)) {
				continue
			}
			residual[s] -= delta
			if residual[s] <= 1e-12 {
				tight.Set(int(s))
				picked = append(picked, int(s))
				for _, e2 := range in.setElem[in.setOff[s]:in.setOff[s+1]] {
					covered.Set(int(e2))
				}
			}
		}
	}

	raw := len(picked)
	picked = in.reverseDelete(picked, ws)
	return picked, in.CoverCost(picked), raw, nil
}

// reverseDelete drops sets that are redundant given the rest, scanning in
// reverse selection order. The result remains a cover, preserves selection
// order, and is deterministic. It works in ws's count and removed arrays.
func (in *Instance) reverseDelete(picked []int, ws *scratch) []int {
	coverCount := ws.count
	if cap(coverCount) < in.numElements {
		coverCount = make([]int32, in.numElements)
	}
	coverCount = coverCount[:in.numElements]
	clear(coverCount)
	removed := ws.removed.Grow(len(picked))
	ws.count, ws.removed = coverCount, removed

	for _, s := range picked {
		for _, e := range in.Set(s) {
			coverCount[e]++
		}
	}
	for i := len(picked) - 1; i >= 0; i-- {
		elems := in.Set(picked[i])
		redundant := true
		for _, e := range elems {
			if coverCount[e] == 1 {
				redundant = false
				break
			}
		}
		if redundant {
			removed.Set(i)
			for _, e := range elems {
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

// coveringLP returns the LP relaxation of the covering program: minimize
// Σ cost(S)·x_S subject to Σ_{S∋e} x_S ≥ 1 for every element e, x ≥ 0.
func (in *Instance) coveringLP() (*lp.Problem, error) {
	p := lp.NewProblem(len(in.costs))
	if err := p.SetObjective(in.costs); err != nil {
		return nil, err
	}
	for e := 0; e < in.numElements; e++ {
		sets := in.elemSet[in.elemOff[e]:in.elemOff[e+1]]
		vars := make([]int, len(sets))
		ones := make([]float64, len(sets))
		for i, s := range sets {
			vars[i] = int(s)
			ones[i] = 1
		}
		if err := p.AddSparseConstraint(vars, ones, lp.GE, 1); err != nil {
			return nil, err
		}
	}
	return p, nil
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
	p, err := in.coveringLP()
	if err != nil {
		return 0, err
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
	p, err := in.coveringLP()
	if err != nil {
		return 0, nil, err
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
	for s, c := range in.costs {
		var sum float64
		for _, e := range in.Set(s) {
			sum += y[e]
		}
		if sum > c+1e-6*(1+c) {
			return 0, nil, fmt.Errorf("setcover: dual certificate violates set %d: %v > %v", s, sum, c)
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
	if len(in.costs) == 0 {
		if in.numElements == 0 {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("setcover: no sets")
	}
	f := in.Frequency()
	p, err := in.coveringLP()
	if err != nil {
		return nil, 0, err
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
	ws := scratchPool.Get().(*scratch)
	defer scratchPool.Put(ws)
	picked = in.reverseDelete(picked, ws)
	return picked, in.CoverCost(picked), nil
}
