package prep

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/obs"
)

// This file keeps the straightforward Algorithm 1 Steps 2, 3 and 4 as the
// reference the flat kernels in prep.go are checked against: a per-property
// map index, lazily built per-query mask tables, a replacement-cost array
// beside the working costs, the branchy superset-min DP, and a union-find
// over maps for the component split. refRun runs
// the whole of Algorithm 1 on it and also returns, per classifier, the
// replacement cost Step 3 recorded, NaN where Step 3 removed nothing.

// refState is the reference's working state: the shared Step 1
// machinery of state plus the structures the kernel replaced.
type refState struct {
	*state

	propCls map[core.PropID][]core.ClassifierID

	// maskToID caches, per query, a dense mask → classifier-ID table
	// (size 2^|q|), built lazily; core.NoClassifier marks absent subsets.
	maskToID [][]core.ClassifierID

	// Reusable scratch for step 3's per-classifier decomposition DP
	// (avoids an allocation per examined classifier).
	scratchEff []float64
	scratchH   []float64

	repl []float64 // replacement cost of removed classifiers
}

// maskTable returns (building if needed) query qi's mask → ID table.
func (st *refState) maskTable(qi int) []core.ClassifierID {
	if st.maskToID == nil {
		st.maskToID = make([][]core.ClassifierID, st.inst.NumQueries())
	}
	if st.maskToID[qi] == nil {
		tbl := make([]core.ClassifierID, st.inst.FullMask(qi)+1)
		for i := range tbl {
			tbl[i] = core.NoClassifier
		}
		for _, qc := range st.inst.QueryClassifiers(qi) {
			tbl[qc.Mask] = qc.ID
		}
		st.maskToID[qi] = tbl
	}
	return st.maskToID[qi]
}

func refRun(ctx context.Context, inst *core.Instance, level Level, ambientLen int) (*Result, []float64, error) {
	// Fail fast on an already-dead context: small instances can otherwise
	// finish before the first batched checkpoint fires.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
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
	st := &refState{state: &state{inst: inst, r: r, ctx: ctx, done: ctx.Done()}, repl: make([]float64, m)}
	for i := range st.repl {
		st.repl[i] = math.NaN()
	}

	// Feasibility: every query must be coverable by finite-cost classifiers.
	fsp, _ := obs.StartChild(ctx, SpanStep, obs.Str("step", "feasibility"))
	for qi := 0; qi < n; qi++ {
		if !st.checkpoint() {
			fsp.EndErr(st.err)
			return nil, nil, st.err
		}
		var union uint64
		for _, qc := range inst.QueryClassifiers(qi) {
			union |= qc.Mask
		}
		if union != inst.FullMask(qi) {
			err := fmt.Errorf("prep: query %d (%v) cannot be covered by any finite-cost classifiers", qi, inst.Query(qi))
			fsp.EndErr(err)
			return nil, nil, err
		}
	}
	fsp.End()

	// ---- Step 1 ----
	s1, _ := obs.StartChild(ctx, SpanStep, obs.Str("step", "step1"))
	for qi := 0; qi < n; qi++ {
		q := inst.Query(qi)
		if q.Len() != 1 {
			continue
		}
		id, ok := inst.ClassifierIDOf(q)
		if !ok {
			err := fmt.Errorf("prep: singleton query %v has no finite-cost classifier", q)
			s1.EndErr(err)
			return nil, nil, err
		}
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
			return nil, nil, st.err
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
	return r, st.repl, nil
}

// components is Step 2's partition over uncovered queries, computed with a
// union-find and a grouping over maps keyed by PropID.
func (st *refState) components(level Level) [][]int {
	inst := st.inst
	r := st.r
	residual := r.ResidualQueries()
	if level == Minimal {
		if len(residual) == 0 {
			return nil
		}
		return [][]int{residual}
	}

	// Union-find over properties.
	parent := make(map[core.PropID]core.PropID)
	var find func(p core.PropID) core.PropID
	find = func(p core.PropID) core.PropID {
		root, ok := parent[p]
		if !ok || root == p {
			parent[p] = p
			return p
		}
		root = find(root)
		parent[p] = root
		return root
	}
	union := func(a, b core.PropID) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, qi := range residual {
		q := inst.Query(qi)
		for i := 1; i < q.Len(); i++ {
			union(q[0], q[i])
		}
	}
	groups := make(map[core.PropID][]int)
	var roots []core.PropID
	for _, qi := range residual {
		root := find(inst.Query(qi)[0])
		if _, ok := groups[root]; !ok {
			roots = append(roots, root)
		}
		groups[root] = append(groups[root], qi)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	out := make([][]int, 0, len(roots))
	for _, root := range roots {
		out = append(out, groups[root])
	}
	return out
}

// buildPropIndex builds the property → classifiers index used to find
// classifiers intersecting a selected classifier (Step 3, line 11).
func (st *refState) buildPropIndex() {
	st.propCls = make(map[core.PropID][]core.ClassifierID)
	for id := 0; id < st.inst.NumClassifiers(); id++ {
		cid := core.ClassifierID(id)
		for _, p := range st.inst.Classifier(cid) {
			st.propCls[p] = append(st.propCls[p], cid)
		}
	}
}

// step3 removes classifiers with no-more-costly decompositions and selects
// forced classifiers, repeating to a fixpoint (lines 7–11).
func (st *refState) step3() {
	inst := st.inst
	r := st.r

	repl := st.repl // replacement cost of removed classifiers

	// effVal is the cost of "obtaining" classifier id: its working cost if
	// alive, or the cost of its recorded replacement decomposition.
	effVal := func(id core.ClassifierID) float64 {
		if r.Removed[id] {
			return repl[id]
		}
		return r.EffCost[id]
	}

	// Classifier examination worklist, bucketed by classifier length and
	// processed in increasing length (line 7).
	maxLen := inst.MaxQueryLen()
	st.scratchEff = make([]float64, 1<<uint(maxLen))
	st.scratchH = make([]float64, 1<<uint(maxLen))
	inQueue := bitset.New(inst.NumClassifiers())
	buckets := make([][]core.ClassifierID, maxLen+1)
	push := func(id core.ClassifierID) {
		if inQueue.Test(int(id)) || r.Removed[id] || r.SelectedSet[id] || r.relCount[id] <= 0 {
			return
		}
		if l := inst.Classifier(id).Len(); l >= 2 {
			inQueue.Set(int(id))
			buckets[l] = append(buckets[l], id)
		}
	}
	for id := 0; id < inst.NumClassifiers(); id++ {
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
	examine := func(id core.ClassifierID) bool {
		s := inst.Classifier(id)
		L := s.Len()
		qi := int(inst.ClassifierQueries(id)[0]) // any query containing s
		sMask, ok := s.MaskIn(inst.Query(qi))
		if !ok {
			panic("prep: classifier not a subset of its incidence query")
		}
		tbl := st.maskTable(qi)

		effOf := func(cid core.ClassifierID) float64 {
			if cid == core.NoClassifier {
				return math.Inf(1)
			}
			return effVal(cid)
		}

		// Fast path for pairs: the only size-2 decomposition of XY is
		// {X, Y}.
		if L == 2 {
			lo := sMask & -sMask
			best := effOf(tbl[lo]) + effOf(tbl[sMask^lo])
			if best <= r.EffCost[id] {
				r.Removed[id] = true
				repl[id] = best
				r.Stats.Step3Removed++
				for _, q := range inst.ClassifierQueries(id) {
					pushQuery(int(q))
				}
				return true
			}
			return false
		}

		// Collect eff costs of all classifiers that are subsets of s, in
		// s-local bit space, by enumerating submasks of sMask. Bit
		// compaction (query-local mask → s-local index) is an order
		// isomorphism between the 2^L submasks of sMask and [0, 2^L), so
		// walking submasks in decreasing order walks the local index down
		// from full one step at a time — no per-submask bit extraction.
		size := 1 << uint(L)
		full := uint64(size - 1)
		eff := st.scratchEff[:size]
		for i := range eff {
			eff[i] = math.Inf(1)
		}
		lm := full
		for sub := (sMask - 1) & sMask; sub != 0; sub = (sub - 1) & sMask {
			lm--
			if cid := tbl[sub]; cid != core.NoClassifier {
				if r.Removed[cid] {
					eff[lm] = repl[cid]
				} else {
					eff[lm] = r.EffCost[cid]
				}
			}
		}

		// h[T] = min eff(B) over proper submasks B of s with B ⊇ T.
		h := st.scratchH[:size]
		copy(h, eff)
		h[full] = math.Inf(1)
		for b := 0; b < L; b++ {
			bit := uint64(1) << uint(b)
			for T := full; ; T-- {
				if T&bit == 0 && h[T|bit] < h[T] {
					h[T] = h[T|bit]
				}
				if T == 0 {
					break
				}
			}
		}

		best := math.Inf(1)
		for A := uint64(1); A < full; A++ {
			if eff[A] == math.Inf(1) {
				continue
			}
			if c := eff[A] + h[full&^A]; c < best {
				best = c
			}
		}
		if best <= r.EffCost[id] {
			r.Removed[id] = true
			repl[id] = best
			r.Stats.Step3Removed++
			for _, q := range inst.ClassifierQueries(id) {
				pushQuery(int(q))
			}
			return true
		}
		return false
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
				for _, p := range inst.Classifier(id) {
					for _, other := range st.propCls[p] {
						push(other)
					}
				}
			}
		}
	}
}

// step4 runs the k = 2 singleton-elimination rule (lines 12–13).
func (st *refState) step4() {
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
		for _, cid := range st.propCls[p] {
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
