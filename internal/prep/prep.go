// Package prep implements the paper's preprocessing procedure (Algorithm 1,
// Section 3) — the initial step of every MC³ solver:
//
//	Step 1 (Obs. 3.1): select classifiers forced by singleton queries and all
//	        zero-weight classifiers; discard queries they already cover.
//	Step 2 (Obs. 3.2): partition the residual queries into property-disjoint
//	        sub-instances (connected components), solvable independently.
//	Step 3 (Obs. 3.3): remove every classifier that a pair of shorter
//	        classifiers replaces at no extra cost, tracking replacement
//	        chains; select classifiers that become forced, and iterate.
//	Step 4 (Obs. 3.4, k = 2 only): eliminate a singleton classifier X when
//	        the relevant classifiers intersecting it are collectively no more
//	        expensive, with the chain reaction the paper describes.
//
// The procedure preserves at least one optimal solution. Its output is a
// Result layered over the immutable core.Instance: effective costs (0 for
// selected, +Inf conceptually for removed — tracked as a flag), residual
// query coverage, and the component partition.
//
// One deliberate strengthening over the paper's line 10: instead of selecting
// classifiers only when a query has a *unique* cover, we select every
// classifier that is *forced* — contained in every cover of some query
// (i.e. the remaining classifiers cannot cover the query without it). A
// forced classifier belongs to every feasible solution, so this is sound for
// every optimal solution, and it subsumes the unique-cover rule (a cover is
// unique exactly when all available classifiers are forced).
package prep

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/obs"
)

// Span names emitted by preprocessing (see internal/obs). Solvers' stats
// sinks match SpanPrep to split a solve's wall time into prep + solve and to
// accumulate the per-step counters carried in its attrs.
const (
	// SpanPrep wraps a whole Algorithm 1 run. Attrs: "level", "queries",
	// "classifiers"; on success also "stats" (a prep.Stats value),
	// "components", and "selected".
	SpanPrep = "prep"
	// SpanStep wraps one preprocessing step. Attrs: "step" ("feasibility",
	// "step1", "step3", "step4", or "step2").
	SpanStep = "prep.step"
)

// Level selects how much of Algorithm 1 runs.
type Level int

const (
	// Minimal performs only what solver correctness requires: Step 1's
	// singleton-query selections (those classifiers are in every solution)
	// plus feasibility checking. Used by the paper's "before preprocessing"
	// experiment arms (Figures 3c, 3e, 3f).
	Minimal Level = iota
	// Full runs all four steps.
	Full
)

// String returns the level name.
func (l Level) String() string {
	switch l {
	case Minimal:
		return "minimal"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Stats counts what each step accomplished.
type Stats struct {
	SingletonSelected int // Step 1: classifiers forced by singleton queries
	ZeroCostSelected  int // Step 1: zero-weight classifiers selected
	Step3Removed      int // Step 3: classifiers removed by decomposition
	Step3Selected     int // Step 3/line 10: classifiers selected as forced
	Step4Removed      int // Step 4: singleton classifiers eliminated
	Step4Selected     int // Step 4: classifiers selected in exchange
	QueriesCovered    int // queries fully covered during preprocessing
	Components        int // property-disjoint sub-instances found (Step 2)
}

// Result is the outcome of preprocessing, layered over the instance.
type Result struct {
	// Inst is the underlying (unmodified) instance.
	Inst *core.Instance
	// Selected lists classifiers chosen during preprocessing; they are part
	// of every solution built on this result.
	Selected []core.ClassifierID
	// SelectedSet is the indicator form of Selected.
	SelectedSet []bool
	// Removed marks classifiers pruned from consideration (conceptually
	// weight +Inf). No optimal solution is lost by ignoring them.
	Removed []bool
	// EffCost is the working cost vector: 0 for selected classifiers,
	// original cost otherwise. Removed classifiers retain a value but must
	// not be used.
	EffCost []float64
	// CoveredQuery marks queries fully covered by the selections.
	CoveredQuery []bool
	// CoveredMask holds, per query, the bitmask of properties covered so
	// far by selected classifiers (query-local bit positions).
	CoveredMask []uint64
	// Components partitions the indices of uncovered queries into
	// property-disjoint groups (Step 2). With Level Minimal this is a
	// single group.
	Components [][]int
	// Stats reports per-step counts.
	Stats Stats

	relCount []int32 // per classifier: number of uncovered queries containing it
}

// Relevant reports whether classifier id still matters: not removed and
// contained in at least one uncovered query.
func (r *Result) Relevant(id core.ClassifierID) bool {
	return !r.Removed[id] && r.relCount[id] > 0
}

// ResidualQueries returns the indices of queries not yet covered.
func (r *Result) ResidualQueries() []int {
	var out []int
	for qi, cov := range r.CoveredQuery {
		if !cov {
			out = append(out, qi)
		}
	}
	return out
}

// state carries the mutable working structures during Run.
type state struct {
	inst *core.Instance
	r    *Result

	// Cancellation bookkeeping: done/ctx feed checkpoint, which records a
	// context error into err; the step loops bail out once err is set.
	ctx  context.Context
	done <-chan struct{}
	ops  int
	err  error

	// The property → classifiers index (Step 3's line 11, Step 4's S_X),
	// built count-then-fill by buildPropIndex: the classifiers containing
	// property p, in ascending ID order, are
	// propCls[propOff[p-propLo]:propOff[p-propLo+1]].
	propLo  core.PropID
	propOff []int32
	propCls []core.ClassifierID

	// val is Step 3's effective-value array, one slot per classifier plus
	// a +Inf sentinel at index NumClassifiers(): the working cost of an
	// alive classifier, 0 for a selected one, and the replacement cost of
	// a removed one. Tests read replacement costs from it.
	val []float64
}

// classifiersWith returns the classifiers containing property p, in
// ascending ID order. p must occur in the instance.
func (st *state) classifiersWith(p core.PropID) []core.ClassifierID {
	i := p - st.propLo
	return st.propCls[st.propOff[i]:st.propOff[i+1]]
}

// Run executes preprocessing at the given level. It fails if some query
// cannot be covered by finite-cost classifiers at all.
func Run(inst *core.Instance, level Level) (*Result, error) {
	return RunCtx(context.Background(), inst, level)
}

// RunCtx is Run with cancellation: the step loops check the context every
// 256 work items and return ctx.Err() when it fires, discarding the partial
// preprocessing result. When ctx carries a span (see internal/obs) the run
// is traced as a "prep" span with one "prep.step" child per step executed.
func RunCtx(ctx context.Context, inst *core.Instance, level Level) (*Result, error) {
	return RunCtxAmbient(ctx, inst, level, 0)
}

// RunCtxAmbient is RunCtx for an instance embedded in a larger load:
// ambientLen, when positive, is the maximal query length of the whole load
// the instance is a component of. Step 4 — the paper's k = 2 rule — applies
// only when the *load* is a k ≤ 2 instance, so a short component carved out
// of a long load must skip it to preprocess exactly as it would in place.
// ambientLen ≤ 0 means the instance is the whole load. Used by internal/incr
// to keep per-component re-solves identical to whole-load solves.
func RunCtxAmbient(ctx context.Context, inst *core.Instance, level Level, ambientLen int) (*Result, error) {
	if ambientLen <= 0 {
		ambientLen = inst.MaxQueryLen()
	}
	sp, ctx := obs.StartChild(ctx, SpanPrep,
		obs.Str("level", level.String()),
		obs.Int("queries", inst.NumQueries()), obs.Int("classifiers", inst.NumClassifiers()))
	r, err := runCtx(ctx, inst, level, ambientLen)
	if err == nil && sp != nil {
		residual, maxComp := 0, 0
		for _, comp := range r.Components {
			residual += len(comp)
			if len(comp) > maxComp {
				maxComp = len(comp)
			}
		}
		sp.SetAttr(obs.Any("stats", r.Stats),
			obs.Int("components", len(r.Components)), obs.Int("selected", len(r.Selected)),
			obs.Int("residual_queries", residual), obs.Int("max_component", maxComp))
	}
	sp.EndErr(err)
	return r, err
}

// runCtx is RunCtx's body, split out so the prep span observes the final
// error uniformly.
func runCtx(ctx context.Context, inst *core.Instance, level Level, ambientLen int) (*Result, error) {
	st, err := run(ctx, inst, level, ambientLen)
	if err != nil {
		return nil, err
	}
	return st.r, nil
}

// run executes Algorithm 1 and returns its final working state, so tests
// can read Step 3's replacement costs beside the Result.
func run(ctx context.Context, inst *core.Instance, level Level, ambientLen int) (*state, error) {
	// Fail fast on an already-dead context: small instances can otherwise
	// finish before the first batched checkpoint fires.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := inst.NumQueries()
	m := inst.NumClassifiers()
	r := &Result{
		Inst:         inst,
		SelectedSet:  make([]bool, m),
		Removed:      make([]bool, m),
		EffCost:      append([]float64(nil), inst.Costs()...),
		CoveredQuery: make([]bool, n),
		CoveredMask:  make([]uint64, n),
		relCount:     make([]int32, m),
	}
	for id := 0; id < m; id++ {
		r.relCount[id] = int32(len(inst.ClassifierQueries(core.ClassifierID(id))))
	}
	st := &state{inst: inst, r: r, ctx: ctx, done: ctx.Done()}

	// Feasibility: every query must be coverable by finite-cost classifiers.
	fsp, _ := obs.StartChild(ctx, SpanStep, obs.Str("step", "feasibility"))
	for qi := 0; qi < n; qi++ {
		if !st.checkpoint() {
			fsp.EndErr(st.err)
			return nil, st.err
		}
		var union uint64
		for _, qc := range inst.QueryClassifiers(qi) {
			union |= qc.Mask
		}
		if union != inst.FullMask(qi) {
			err := fmt.Errorf("prep: query %d (%v) cannot be covered by any finite-cost classifiers", qi, inst.Query(qi))
			fsp.EndErr(err)
			return nil, err
		}
	}
	fsp.End()

	// ---- Step 1 ----
	s1, _ := obs.StartChild(ctx, SpanStep, obs.Str("step", "step1"))
	for qi := 0; qi < n; qi++ {
		if inst.Query(qi).Len() != 1 {
			continue
		}
		// The feasibility pass leaves a singleton its own classifier, the
		// only entry of its row.
		id := inst.QueryClassifiers(qi)[0].ID
		if !r.SelectedSet[id] {
			r.Stats.SingletonSelected++
		}
		st.selectClassifier(id)
	}
	if level == Full {
		for id := 0; id < m; id++ {
			cid := core.ClassifierID(id)
			if inst.Cost(cid) == 0 && !r.SelectedSet[cid] && r.relCount[cid] > 0 {
				r.Stats.ZeroCostSelected++
				st.selectClassifier(cid)
			}
		}
	}
	s1.SetAttr(obs.Int("selected", len(r.Selected)))
	s1.End()

	if level == Full {
		st.buildPropIndex()
		s3, _ := obs.StartChild(ctx, SpanStep, obs.Str("step", "step3"))
		st.step3()
		s3.SetAttr(obs.Int("removed", r.Stats.Step3Removed), obs.Int("selected", r.Stats.Step3Selected))
		s3.EndErr(st.err)
		if st.err == nil && inst.MaxQueryLen() <= 2 && ambientLen <= 2 {
			s4, _ := obs.StartChild(ctx, SpanStep, obs.Str("step", "step4"))
			st.step4()
			s4.SetAttr(obs.Int("removed", r.Stats.Step4Removed), obs.Int("selected", r.Stats.Step4Selected))
			s4.EndErr(st.err)
		}
		if st.err != nil {
			return nil, st.err
		}
	}

	// ---- Step 2: component partition of the residual ----
	s2, _ := obs.StartChild(ctx, SpanStep, obs.Str("step", "step2"))
	r.Components = st.components(level)
	s2.SetAttr(obs.Int("components", len(r.Components)))
	s2.End()
	r.Stats.Components = len(r.Components)
	for _, cov := range r.CoveredQuery {
		if cov {
			r.Stats.QueriesCovered++
		}
	}
	return st, nil
}

// selectClassifier marks id selected: zero working cost, propagate coverage.
func (st *state) selectClassifier(id core.ClassifierID) {
	r := st.r
	if r.SelectedSet[id] || r.Removed[id] {
		return
	}
	r.SelectedSet[id] = true
	r.Selected = append(r.Selected, id)
	r.EffCost[id] = 0
	for _, qi := range st.inst.ClassifierQueries(id) {
		if r.CoveredQuery[qi] {
			continue
		}
		mask := st.maskIn(int(qi), id)
		r.CoveredMask[qi] |= mask
		if r.CoveredMask[qi] == st.inst.FullMask(int(qi)) {
			st.markCovered(int(qi))
		}
	}
}

// markCovered retires query qi and decrements classifier relevance.
func (st *state) markCovered(qi int) {
	r := st.r
	if r.CoveredQuery[qi] {
		return
	}
	r.CoveredQuery[qi] = true
	for _, qc := range st.inst.QueryClassifiers(qi) {
		r.relCount[qc.ID]--
	}
}

// maskIn computes classifier id's bitmask within query qi.
func (st *state) maskIn(qi int, id core.ClassifierID) uint64 {
	mask, ok := st.inst.Classifier(id).MaskIn(st.inst.Query(qi))
	if !ok {
		panic(fmt.Sprintf("prep: classifier %d not in query %d", id, qi))
	}
	return mask
}

// buildPropIndex builds the property → classifiers index used to find
// classifiers intersecting a selected classifier (Step 3, line 11) and Step
// 4's S_X, count-then-fill into one flat array over the instance's property
// range. Filling in ID order keeps every list ascending.
func (st *state) buildPropIndex() {
	inst := st.inst
	lo, hi := inst.Query(0)[0], inst.Query(0)[0]
	for _, q := range inst.Queries() {
		lo, hi = min(lo, q[0]), max(hi, q[q.Len()-1])
	}
	// off[i+1] counts property lo+i's classifiers, then becomes its list's
	// end after the prefix sum; the fill advances off[i] from the start of
	// the list to its end, and the final shift restores the starts.
	off := make([]int32, hi-lo+2)
	for id := 0; id < inst.NumClassifiers(); id++ {
		for _, p := range inst.Classifier(core.ClassifierID(id)) {
			off[p-lo+1]++
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	cls := make([]core.ClassifierID, off[len(off)-1])
	for id := 0; id < inst.NumClassifiers(); id++ {
		for _, p := range inst.Classifier(core.ClassifierID(id)) {
			cls[off[p-lo]] = core.ClassifierID(id)
			off[p-lo]++
		}
	}
	copy(off[1:], off)
	off[0] = 0
	st.propLo, st.propOff, st.propCls = lo, off, cls
}

// components computes Step 2's partition over uncovered queries: a
// union-find over properties, flat over the residual's PropID range as
// buildPropIndex's index is. Its find and union steps are those of the map
// version the tests keep, so every component has the same root, and the
// components come out in the same ascending-root order.
func (st *state) components(level Level) [][]int {
	inst := st.inst
	residual := st.r.ResidualQueries()
	if level == Minimal {
		if len(residual) == 0 {
			return nil
		}
		return [][]int{residual}
	}
	if len(residual) == 0 {
		return [][]int{}
	}

	lo, hi := inst.Query(residual[0])[0], inst.Query(residual[0])[0]
	for _, qi := range residual {
		q := inst.Query(qi)
		lo, hi = min(lo, q[0]), max(hi, q[q.Len()-1])
	}
	// parent[i] is property lo+i's parent, as an offset from lo; every
	// property starts as its own root.
	parent := make([]int32, hi-lo+1)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(p int32) int32 {
		root := p
		for parent[root] != root {
			root = parent[root]
		}
		for parent[p] != root {
			parent[p], p = root, parent[p]
		}
		return root
	}
	for _, qi := range residual {
		q := inst.Query(qi)
		for _, p := range q[1:] {
			if ra, rb := find(int32(q[0]-lo)), find(int32(p-lo)); ra != rb {
				parent[ra] = rb
			}
		}
	}

	// group[i] first counts the queries whose root is property lo+i, then
	// holds that root's component index, so components ascend by root.
	// Each component is a window of one backing array, filled in residual
	// order.
	group := make([]int32, len(parent))
	comps := 0
	for _, qi := range residual {
		root := find(int32(inst.Query(qi)[0] - lo))
		if group[root] == 0 {
			comps++
		}
		group[root]++
	}
	out := make([][]int, 0, comps)
	flat := make([]int, len(residual))
	for i, n := range group {
		if n > 0 {
			group[i] = int32(len(out))
			out = append(out, flat[:0:n])
			flat = flat[n:]
		}
	}
	for _, qi := range residual {
		g := group[find(int32(inst.Query(qi)[0]-lo))]
		out[g] = append(out[g], qi)
	}
	return out
}

// site locates a classifier for Step 3's gather: a query containing it and
// its mask within that query, which fits 32 bits because queries are at most
// core.MaxEnumQueryLen long. The query is the first uncovered one containing
// the classifier at the start of Step 3; any query containing it would
// serve, since the classifier's subsets and their IDs are the same in every
// such query.
type site struct {
	q    int32
	mask uint32
}

// buildSites returns Step 3's flat mask tables, each query's table offset
// (−1 for none) and every examinable classifier's site. A query gets a
// table, 2^|q| entries mapping each query-local mask to its classifier's ID
// or to the sentinel m, only when it is the site of some classifier of
// length ≥ 2. Classifiers of length 1 and those contained in no uncovered
// query keep a zero site; Step 3 never examines them.
func (st *state) buildSites() ([]int32, []int, []site) {
	inst := st.inst
	r := st.r
	m := inst.NumClassifiers()
	sites := make([]site, m)
	qOff := make([]int, inst.NumQueries())
	size := 0
	for qi := range qOff {
		qOff[qi] = -1
		if r.CoveredQuery[qi] {
			continue
		}
		for _, qc := range inst.QueryClassifiers(qi) {
			if qc.Mask&(qc.Mask-1) == 0 || sites[qc.ID].mask != 0 {
				continue
			}
			if qOff[qi] < 0 {
				qOff[qi] = size
				size += int(inst.FullMask(qi)) + 1
			}
			sites[qc.ID] = site{q: int32(qi), mask: uint32(qc.Mask)}
		}
	}
	tbl := make([]int32, size)
	for i := range tbl {
		tbl[i] = int32(m)
	}
	for qi, off := range qOff {
		if off < 0 {
			continue
		}
		t := tbl[off:]
		for _, qc := range inst.QueryClassifiers(qi) {
			t[qc.Mask] = int32(qc.ID)
		}
	}
	return tbl, qOff, sites
}

// decompose returns the cheapest replacement of a classifier of length
// L ≥ 2 by two proper subsets (lines 8–9): the minimum of val[A] + val[B]
// over pairs of proper subsets A, B with A ∪ B the whole classifier. t is the
// mask table of a query containing the classifier, mask the classifier's
// mask in it, and h scratch of at least 2^L entries.
//
// The kernel runs in the classifier's local bit space: bit compaction
// (query-local mask → local index) is an order isomorphism between the 2^L
// submasks of mask and [0, 2^L).
//   - Gather: h[T] = val of subset T, +Inf for the empty and the full set
//     and, through the sentinel slot, for subsets that are not classifiers.
//   - Superset-min: h[T] becomes the minimum over proper supersets of T, by
//     branch-free min passes over bit blocks, bits 0 and 1 unrolled.
//   - Combine: the minimum of h[A] + h[full^A] over A without the top bit.
//     Every covering pair (X, Y) appears: one of them, say Y, holds the top
//     bit, and A = full^Y lies in X. Each term is itself a covering pair's
//     sum, because IEEE addition is monotone. So the result is the exact
//     minimum over covering pairs, bit for bit.
func decompose(val []float64, t []int32, mask uint64, h []float64) float64 {
	size := 1 << uint(bits.OnesCount64(mask))
	full := size - 1
	h = h[:size]

	// Walking submasks in decreasing order walks the local index down from
	// full one step at a time.
	h[full] = math.Inf(1)
	lm := full
	for sub := (mask - 1) & mask; ; sub = (sub - 1) & mask {
		lm--
		h[lm] = val[t[sub]]
		if sub == 0 {
			break
		}
	}

	for i := 0; i < size; i += 4 {
		b := h[i : i+4 : i+4]
		b[0] = min(b[0], b[1], b[2], b[3])
		b[1] = min(b[1], b[3])
		b[2] = min(b[2], b[3])
	}
	for bit := 4; bit < size; bit <<= 1 {
		for base := 0; base < size; base += bit << 1 {
			lo := h[base : base+bit]
			hi := h[base+bit : base+bit<<1]
			for i, v := range hi[:len(lo)] {
				lo[i] = min(lo[i], v)
			}
		}
	}

	// lo[i] is h[A] for A = i and hi[half-1-i] is h[full^A]. A = 0 pairs
	// with h[full] = +Inf, so it adds nothing and keeps the count even for
	// the two interleaved minimum chains.
	half := size >> 1
	lo, hi := h[:half], h[half:size]
	b0, b1 := math.Inf(1), math.Inf(1)
	for i := 0; i < half; i += 2 {
		j := half - 1 - i
		b0 = min(b0, lo[i]+hi[j])
		b1 = min(b1, lo[i+1]+hi[j-1])
	}
	return min(b0, b1)
}

// step3 removes classifiers with no-more-costly decompositions and selects
// forced classifiers, repeating to a fixpoint (lines 7–11).
func (st *state) step3() {
	inst := st.inst
	r := st.r

	tbl, qOff, sites := st.buildSites()
	m := inst.NumClassifiers()
	val := make([]float64, m+1)
	copy(val, r.EffCost)
	val[m] = math.Inf(1)
	st.val = val
	h := make([]float64, 1<<uint(inst.MaxQueryLen()))

	// Classifier examination worklist, bucketed by classifier length and
	// processed in increasing length (line 7).
	maxLen := inst.MaxQueryLen()
	inQueue := bitset.New(m)
	buckets := make([][]core.ClassifierID, maxLen+1)
	push := func(id core.ClassifierID) {
		if inQueue.Test(int(id)) || r.Removed[id] || r.SelectedSet[id] || r.relCount[id] <= 0 {
			return
		}
		if l := bits.OnesCount32(sites[id].mask); l >= 2 {
			inQueue.Set(int(id))
			buckets[l] = append(buckets[l], id)
		}
	}
	for id := 0; id < m; id++ {
		push(core.ClassifierID(id))
	}

	queryCheck := bitset.New(inst.NumQueries())
	var queryQueue []int
	pushQuery := func(qi int) {
		if !queryCheck.Test(qi) && !r.CoveredQuery[qi] {
			queryCheck.Set(qi)
			queryQueue = append(queryQueue, qi)
		}
	}
	// Forced classifiers may exist before any removal (a query may depend
	// on a classifier because other subsets are priced at +Inf), so every
	// residual query gets one initial check.
	for qi := 0; qi < inst.NumQueries(); qi++ {
		if !r.CoveredQuery[qi] {
			pushQuery(qi)
		}
	}

	// examine tests classifier id for removal by decomposition (lines 8–9).
	examine := func(id core.ClassifierID) {
		s := sites[id]
		t := tbl[qOff[s.q]:]
		var best float64
		if bits.OnesCount32(s.mask) == 2 {
			// A pair's only decomposition is its two singletons.
			lo := s.mask & -s.mask
			best = val[t[lo]] + val[t[s.mask^lo]]
		} else {
			best = decompose(val, t, uint64(s.mask), h)
		}
		if best <= r.EffCost[id] {
			r.Removed[id] = true
			val[id] = best
			r.Stats.Step3Removed++
			for _, q := range inst.ClassifierQueries(id) {
				pushQuery(int(q))
			}
		}
	}

	// checkForced selects classifiers forced for query qi (strengthened
	// line 10) and returns those selected. The returned slice is reused by
	// the next call — callers consume it before checking another query.
	var forcedBuf []core.ClassifierID
	checkForced := func(qi int) []core.ClassifierID {
		var cnt [64]int32 // zeroed per call; query length is at most 64 bits
		for _, qc := range inst.QueryClassifiers(qi) {
			if r.Removed[qc.ID] {
				continue
			}
			for m := qc.Mask; m != 0; m &= m - 1 {
				cnt[bits.TrailingZeros64(m)]++
			}
		}
		forced := forcedBuf[:0]
		for _, qc := range inst.QueryClassifiers(qi) {
			if r.Removed[qc.ID] || r.SelectedSet[qc.ID] {
				continue
			}
			for m := qc.Mask; m != 0; m &= m - 1 {
				if cnt[bits.TrailingZeros64(m)] == 1 {
					forced = append(forced, qc.ID)
					break
				}
			}
		}
		forcedBuf = forced
		return forced
	}

	pending := func() bool {
		for _, b := range buckets {
			if len(b) > 0 {
				return true
			}
		}
		return len(queryQueue) > 0
	}
	for pending() {
		if st.err != nil {
			return
		}
		// Drain classifier examinations in increasing length order.
		for l := 2; l <= maxLen; l++ {
			for len(buckets[l]) > 0 {
				if !st.checkpoint() {
					return
				}
				id := buckets[l][len(buckets[l])-1]
				buckets[l] = buckets[l][:len(buckets[l])-1]
				inQueue.Clear(int(id))
				if r.Removed[id] || r.SelectedSet[id] || r.relCount[id] <= 0 {
					continue
				}
				examine(id)
			}
		}
		// Then run query forcing checks; selections re-arm the classifier
		// buckets for intersecting classifiers (line 11).
		checks := queryQueue
		queryQueue = nil
		for _, qi := range checks {
			if !st.checkpoint() {
				return
			}
			queryCheck.Clear(qi)
			if r.CoveredQuery[qi] {
				continue
			}
			for _, id := range checkForced(qi) {
				if r.SelectedSet[id] {
					continue
				}
				r.Stats.Step3Selected++
				st.selectClassifier(id)
				val[id] = 0
				for _, p := range inst.Classifier(id) {
					for _, other := range st.classifiersWith(p) {
						push(other)
					}
				}
			}
		}
	}
}

// step4 runs the k = 2 singleton-elimination rule (lines 12–13).
func (st *state) step4() {
	inst := st.inst
	r := st.r

	// Property worklist.
	inQueue := make(map[core.PropID]bool)
	var queue []core.PropID
	push := func(p core.PropID) {
		if !inQueue[p] {
			inQueue[p] = true
			queue = append(queue, p)
		}
	}
	for id := 0; id < inst.NumClassifiers(); id++ {
		cid := core.ClassifierID(id)
		if inst.Classifier(cid).Len() == 1 {
			push(inst.Classifier(cid)[0])
		}
	}

	for len(queue) > 0 {
		if !st.checkpoint() {
			return
		}
		p := queue[0]
		queue = queue[1:]
		inQueue[p] = false

		xid, ok := inst.ClassifierIDOf(core.NewPropSet(p))
		if !ok {
			continue
		}
		if r.Removed[xid] || r.SelectedSet[xid] || r.relCount[xid] <= 0 {
			continue
		}
		// Soundness guard (implicit in Obs. 3.4): eliminating X is only
		// valid if every uncovered query containing x can be covered
		// without X, i.e. its full-query pair classifier is still alive.
		// Otherwise X is forced and must stay.
		forced := false
		for _, qi := range inst.ClassifierQueries(xid) {
			if r.CoveredQuery[qi] {
				continue
			}
			pairAlive := false
			full := inst.FullMask(int(qi))
			for _, qc := range inst.QueryClassifiers(int(qi)) {
				if qc.Mask == full && !r.Removed[qc.ID] {
					pairAlive = true
					break
				}
			}
			if !pairAlive {
				forced = true
				break
			}
		}
		if forced {
			continue
		}
		// S_X: relevant, non-removed classifiers intersecting X (the
		// length-2 classifiers containing p whose query is uncovered).
		var sx []core.ClassifierID
		var sum float64
		for _, cid := range st.classifiersWith(p) {
			if cid == xid || r.Removed[cid] || !st.relevantNow(cid) {
				continue
			}
			sx = append(sx, cid)
			sum += r.EffCost[cid]
		}
		if sum <= r.EffCost[xid] {
			r.Removed[xid] = true
			r.Stats.Step4Removed++
			for _, cid := range sx {
				if !r.SelectedSet[cid] {
					r.Stats.Step4Selected++
				}
				st.selectClassifier(cid)
				// Chain reaction: for each selected XY, recheck Y.
				for _, p2 := range inst.Classifier(cid) {
					if p2 != p {
						push(p2)
					}
				}
			}
		}
	}
}

// relevantNow reports whether classifier id is contained in ≥1 uncovered
// query.
func (st *state) relevantNow(id core.ClassifierID) bool {
	return st.r.relCount[id] > 0
}

// checkpoint reports whether work may continue: it polls the context every
// 256 calls (cheap enough for per-item use in the step loops) and records
// ctx.Err() into st.err once the context fires.
func (st *state) checkpoint() bool {
	if st.err != nil {
		return false
	}
	st.ops++
	if st.done != nil && st.ops&255 == 0 {
		select {
		case <-st.done:
			st.err = st.ctx.Err()
			return false
		default:
		}
	}
	return true
}
