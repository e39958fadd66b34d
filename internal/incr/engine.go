package incr

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/solver"
)

// SpanApply is the span emitted per Apply (see internal/obs). Attrs:
// "deltas", "components", "dirty", "reused", "split", "merged", "cost",
// and "build_ns", the nanoseconds spent assembling the dirty components'
// instances from the session's C_Q store, summed over the components (so
// with parallel re-solves it can exceed the span's wall time).
const SpanApply = "incr.apply"

// Algorithm names accepted by Config.Algo.
const (
	// AlgoAuto dispatches per the façade rule: Algorithm 2 when the load's
	// maximal query length is ≤ 2, Algorithm 3 otherwise.
	AlgoAuto = "auto"
	// AlgoGeneral forces Algorithm 3 on every component.
	AlgoGeneral = "general"
	// AlgoKTwo forces Algorithm 2; applying a delta that leaves a query of
	// length > 2 in the load is then an error.
	AlgoKTwo = "ktwo"
)

// Config configures an Engine.
type Config struct {
	// Costs is the base cost model pricing every classifier (required).
	// OpUpdateCost deltas override it per classifier. The engine owns a
	// *core.PriceTable from New on: an override is Put into it, where a
	// later Put of the same set wins. So pass a table nothing else reads or
	// writes, such as a fresh one from textio.File.CostModelFor. Any other
	// model is left untouched, with the overrides in a table of their own
	// over it. Either way the model prices a subset once, when the first
	// query holding it is enumerated into the engine's C_Q store; an
	// override re-prices the store as well, and component instances are
	// assembled from the store's prices without probing the model.
	Costs core.CostModel
	// Universe, when non-nil, is the property universe to intern into
	// (useful when Costs was built against an existing universe). Nil means
	// a fresh universe.
	Universe *core.Universe
	// Algo selects the solver: AlgoAuto (default, ""), AlgoGeneral, or
	// AlgoKTwo. Short-First and Portfolio are not supported — they couple
	// components through the load's length partition, so their solutions do
	// not decompose per component.
	Algo string
	// Options is the solver configuration template (WSC method, max-flow
	// engine, prep level, parallelism, validation). Context, Cache, Tracer,
	// and AmbientQueryLen are managed by the engine per solve.
	// Options.Parallelism additionally bounds how many dirty components an
	// Apply re-solves concurrently (0/1 serial, negative = GOMAXPROCS):
	// the engine dispatches its re-solve loop through the same component
	// dispatcher the full solvers use.
	Options solver.Options
	// Cache, when non-nil, is the component-solution cache consulted on
	// every component solve; share one cache across engines (and with
	// plain solves) to reuse work globally. Nil means the engine creates a
	// private default-sized cache; set NoCache to run without one.
	Cache *cache.Cache
	// NoCache disables component-solution caching entirely.
	NoCache bool
	// Tracer, when non-nil, traces every Apply (one SpanApply with the
	// underlying solver spans nested beneath).
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives the engine's counters and gauges
	// (mc3_incr_*). All registry methods are nil-safe.
	Metrics *obs.Registry
}

// Result reports what one Apply (or the initial load installation) did.
type Result struct {
	// Cost is the total construction cost of the load's solution after the
	// batch.
	Cost float64 `json:"cost"`
	// Deltas is the number of deltas applied.
	Deltas int `json:"deltas"`
	// Components is the number of property-disjoint components after the
	// batch.
	Components int `json:"components"`
	// Dirty counts components re-solved by this Apply.
	Dirty int `json:"dirty"`
	// Reused counts components whose previous solutions carried over
	// untouched.
	Reused int `json:"reused"`
	// Split counts components created by removals splitting a component
	// (a split into g parts counts g−1).
	Split int `json:"split"`
	// Merged counts components dissolved by additions bridging previously
	// disjoint components.
	Merged int `json:"merged"`
	// Added and Removed list the classifiers (as sorted property names)
	// that entered and left the solution.
	Added   [][]string `json:"added,omitempty"`
	Removed [][]string `json:"removed,omitempty"`
	// Seconds is the wall time of the Apply, including the re-solves.
	Seconds float64 `json:"seconds"`
}

// Solution is the engine's current global solution.
type Solution struct {
	// Cost is the total construction cost.
	Cost float64 `json:"cost"`
	// Classifiers lists the selected classifiers as sorted property names,
	// ordered lexicographically.
	Classifiers [][]string `json:"classifiers"`
}

// Stats is a snapshot of the engine's lifetime counters.
type Stats struct {
	Applies    int64 `json:"applies"`
	Deltas     int64 `json:"deltas"`
	Queries    int   `json:"queries"` // distinct queries currently in the load
	Components int   `json:"components"`
	Dirtied    int64 `json:"dirtied"`
	Reused     int64 `json:"reused"`
	Splits     int64 `json:"splits"`
	Merges     int64 `json:"merges"`
}

// qEntry is one distinct query of the live load.
type qEntry struct {
	set   core.PropSet
	key   string
	count int   // multiset multiplicity
	seq   int64 // first-insertion sequence: QuerySets order, split numbering
	comp  int   // owning component id
	h     int32 // handle in the engine's C_Q store
	pos   int   // index in its component's queries
}

// component is one property-disjoint group of queries with its current
// solution.
type component struct {
	id      int
	queries []*qEntry // dense, in no particular order: qe.pos is qe's index
	// freed lists the properties whose last query has left since the split
	// check. They map to the component until the check, so a query the same
	// batch adds through one joins it.
	freed   []core.PropID
	dirty   bool // listed in Engine.dirty
	rebuild bool // listed in Engine.suspects: a removal may have split it

	picks []int32 // solved classifier selection, as store classifier IDs
	cost  float64
}

// byID orders components by id, which is unique.
func byID(a, b *component) int { return cmp.Compare(a.id, b.id) }

// Engine owns a live load and keeps its solution current under deltas. All
// methods are safe for concurrent use; Apply batches are serialized.
type Engine struct {
	mu sync.Mutex

	u *core.Universe
	// costs prices every classifier: the owned base table, or an overlay
	// of prices over any other base model. prices is where OpUpdateCost
	// writes: the owned table itself, or the overlay's overrides.
	costs   core.CostModel
	prices  *core.PriceTable
	algo    string
	opts    solver.Options
	cache   *cache.Cache
	tracer  *obs.Tracer
	metrics *obs.Registry

	// enum holds the C_Q row of every distinct query of the load, and of
	// removed ones until it compacts them away; dirty components are
	// assembled from it, and their picks are its classifier IDs.
	enum     *core.Enumeration
	queries  map[string]*qEntry
	comps    map[int]*component
	nextComp int
	seq      int64
	lenCount [core.MaxEnumQueryLen + 1]int // distinct queries per length

	// By PropID: the id of the component holding the property, or listing
	// it as freed (0 for none), and how many distinct queries of the load
	// hold it.
	propComp []int
	propRefs []int32

	// Components marked dirty or split-suspect since they were last
	// solved or rechecked, in marking order; a component merged or split
	// away stays listed until resolveLocked drops it.
	dirty, suspects []*component

	haveGate bool
	gate     bool // load max query length ≤ 2

	split splitScratch
	// marks is diffLocked's scratch, by store classifier ID: 1 for an old
	// pick not yet matched, 0 otherwise.
	marks []uint8

	stats Stats
}

// splitScratch is rebuildLocked's working memory, indexed by PropID. Apply
// holds mu, so the engine needs only one. A rebuild lists the properties it
// sets in touched and resets them through that list, so it costs the size
// of its component, not of the universe.
type splitScratch struct {
	parent  []core.PropID // union-find parent; −1 for a property not touched
	part    []int32       // per root: index of its part; −1 for none
	touched []core.PropID
}

// grow extends the scratch to index PropIDs below n.
func (sc *splitScratch) grow(n int) {
	for len(sc.parent) < n {
		sc.parent = append(sc.parent, -1)
		sc.part = append(sc.part, -1)
	}
}

// find returns p's union-find root, making an untouched p a root of its
// own.
func (sc *splitScratch) find(p core.PropID) core.PropID {
	if sc.parent[p] < 0 {
		sc.parent[p] = p
		sc.touched = append(sc.touched, p)
		return p
	}
	root := p
	for sc.parent[root] != root {
		root = sc.parent[root]
	}
	for sc.parent[p] != root {
		sc.parent[p], p = root, sc.parent[p]
	}
	return root
}

// reset clears every entry the last rebuild touched.
func (sc *splitScratch) reset() {
	for _, p := range sc.touched {
		sc.parent[p], sc.part[p] = -1, -1
	}
	sc.touched = sc.touched[:0]
}

// New returns an empty engine. Install a load by Applying OpAdd deltas.
func New(cfg Config) (*Engine, error) {
	if cfg.Costs == nil {
		return nil, fmt.Errorf("incr: Config.Costs is required")
	}
	switch cfg.Algo {
	case "", AlgoAuto:
		cfg.Algo = AlgoAuto
	case AlgoGeneral, AlgoKTwo:
	default:
		return nil, fmt.Errorf("incr: unsupported algo %q (want %s, %s, or %s)",
			cfg.Algo, AlgoAuto, AlgoGeneral, AlgoKTwo)
	}
	u := cfg.Universe
	if u == nil {
		u = core.NewUniverse()
	}
	c := cfg.Cache
	if c == nil && !cfg.NoCache {
		c = cache.New(cache.Config{Metrics: cfg.Metrics})
	}
	costs := cfg.Costs
	prices, owned := costs.(*core.PriceTable)
	if !owned {
		prices = new(core.PriceTable)
		costs = overlayCost{base: costs, over: prices}
	}
	enum, err := core.NewEnumeration(u, costs, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("incr: %w", err)
	}
	return &Engine{
		u:        u,
		costs:    costs,
		prices:   prices,
		algo:     cfg.Algo,
		opts:     cfg.Options,
		cache:    c,
		tracer:   cfg.Tracer,
		metrics:  cfg.Metrics,
		enum:     enum,
		queries:  make(map[string]*qEntry),
		comps:    make(map[int]*component),
		nextComp: 1,
	}, nil
}

// overlayCost layers the engine's cost overrides over a base model that is
// not a price table.
type overlayCost struct {
	base core.CostModel
	over *core.PriceTable
}

// Cost implements core.CostModel. An override lookup is one probe of a flat
// table, so pricing allocates nothing.
func (o overlayCost) Cost(s core.PropSet) float64 {
	if c, ok := o.over.Lookup(s); ok {
		return c
	}
	return o.base.Cost(s)
}

// Universe returns the engine's property universe.
func (e *Engine) Universe() *core.Universe { return e.u }

// CostModel returns the live cost model: the base model with every
// OpUpdateCost override applied. The view reflects future overrides; do not
// use it concurrently with Apply.
func (e *Engine) CostModel() core.CostModel { return e.costs }

// QuerySets returns the distinct queries of the live load in insertion
// order — the exact materialization a from-scratch solve of the current
// load uses.
func (e *Engine) QuerySets() []core.PropSet {
	e.mu.Lock()
	defer e.mu.Unlock()
	entries := e.sortedQueries()
	out := make([]core.PropSet, len(entries))
	for i, qe := range entries {
		out[i] = qe.set
	}
	return out
}

// Queries returns the distinct queries as property-name lists, in insertion
// order.
func (e *Engine) Queries() [][]string {
	e.mu.Lock()
	defer e.mu.Unlock()
	entries := e.sortedQueries()
	out := make([][]string, len(entries))
	for i, qe := range entries {
		out[i] = e.u.SetNames(qe.set)
	}
	return out
}

// QueryMultiset returns the live load as property-name lists with every
// query repeated its multiset count, in insertion order: the exact add
// sequence that rebuilds this engine's state from scratch (Queries()
// collapses duplicates, which would make a later removal of a
// multiply-added query diverge).
func (e *Engine) QueryMultiset() [][]string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out [][]string
	for _, qe := range e.sortedQueries() {
		names := e.u.SetNames(qe.set)
		for c := 0; c < qe.count; c++ {
			out = append(out, names)
		}
	}
	return out
}

// bySeq orders query entries by insertion sequence, which is unique.
func bySeq(a, b *qEntry) int { return cmp.Compare(a.seq, b.seq) }

// sortedQueries returns the load's entries ordered by insertion sequence.
// Callers hold mu.
func (e *Engine) sortedQueries() []*qEntry {
	entries := make([]*qEntry, 0, len(e.queries))
	for _, qe := range e.queries {
		entries = append(entries, qe)
	}
	slices.SortFunc(entries, bySeq)
	return entries
}

// MaxQueryLen returns the maximal query length of the live load (0 when
// empty).
func (e *Engine) MaxQueryLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.maxLenLocked()
}

func (e *Engine) maxLenLocked() int {
	for l := len(e.lenCount) - 1; l >= 1; l-- {
		if e.lenCount[l] > 0 {
			return l
		}
	}
	return 0
}

// Stats returns a snapshot of the engine's lifetime counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	st.Queries = len(e.queries)
	st.Components = len(e.comps)
	return st
}

// CacheStats returns the component-solution cache's counters (zero when the
// engine runs uncached).
func (e *Engine) CacheStats() cache.Stats { return e.cache.Stats() }

// Solution returns the current global solution. It errors if a previous
// Apply failed mid-batch and left components unsolved; Apply an empty batch
// to retry them.
func (e *Engine) Solution() (*Solution, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := e.unsolvedLocked(); n > 0 {
		return nil, fmt.Errorf("incr: %d component(s) unsolved after a failed Apply; apply an empty batch to retry", n)
	}
	sol := &Solution{}
	for _, comp := range e.comps {
		sol.Cost += comp.cost
		for _, v := range comp.picks {
			sol.Classifiers = append(sol.Classifiers, e.u.SetNames(e.enum.Classifier(v)))
		}
	}
	sortNameSets(sol.Classifiers)
	return sol, nil
}

// unsolvedLocked counts the components a failed Apply left dirty. Callers
// hold mu.
func (e *Engine) unsolvedLocked() int {
	n := 0
	for _, comp := range e.dirty {
		if e.comps[comp.id] == comp && comp.dirty {
			n++
		}
	}
	return n
}

// canonDelta is a validated, interned delta.
type canonDelta struct {
	op   Op
	set  core.PropSet
	key  string
	cost float64
}

// Apply validates and applies a batch of deltas, re-solves the dirty
// components, and returns the updated solution summary. The batch is
// validated as a whole before any mutation: an invalid delta (malformed
// props, removal of an absent query, invalid cost) rejects the batch with
// no state change. A solver failure (infeasible component, cancellation)
// leaves the structural state updated and the failed components dirty;
// re-Apply (an empty batch suffices) retries them.
//
// An empty batch is valid: it re-solves whatever is dirty and returns the
// current solution summary.
//
// A batch that leaves no component dirty ends by compacting the C_Q store
// when its removals retired more queries than stay live; until then, store
// classifier IDs, and so the picks, stay put.
func (e *Engine) Apply(ctx context.Context, deltas []Delta) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	start := time.Now()

	canon, fresh, err := e.validateLocked(deltas)
	if err != nil {
		return nil, err
	}
	for _, name := range fresh {
		e.u.Intern(name) // gets the provisional ID validateLocked gave it
	}
	for n := e.u.Size(); len(e.propComp) < n; {
		e.propComp = append(e.propComp, 0)
		e.propRefs = append(e.propRefs, 0)
	}

	sp, ctx := obs.StartSpan(ctx, e.tracer, SpanApply, obs.Int("deltas", len(deltas)))
	res := &Result{Deltas: len(deltas)}
	var oldPicks []int32
	for _, d := range canon {
		switch d.op {
		case OpAdd:
			e.addLocked(d, res, &oldPicks)
		case OpRemove:
			e.removeLocked(d, res, &oldPicks)
		case OpUpdateCost:
			e.updateCostLocked(d)
		}
	}
	buildNS, err := e.resolveLocked(ctx, res, &oldPicks)
	if err == nil {
		e.compactLocked()
	}
	res.Seconds = time.Since(start).Seconds()
	e.recordLocked(res)
	sp.SetAttr(obs.Int("components", res.Components), obs.Int("dirty", res.Dirty),
		obs.Int("reused", res.Reused), obs.Int("split", res.Split),
		obs.Int("merged", res.Merged), obs.F64("cost", res.Cost), obs.I64("build_ns", buildNS))
	sp.EndErr(err)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// validateLocked checks the whole batch against the current load and
// returns its canonical form, with the names the universe lacks. It interns
// nothing, so a rejected batch leaves the universe as it was. A name the
// universe lacks gets a provisional ID past the universe's end, in order
// of first appearance: the ID interning the returned names in order gives
// it. Such a name is in no query of the load, so removing a query holding
// it is valid only after an add earlier in the batch. Callers hold mu.
func (e *Engine) validateLocked(deltas []Delta) ([]canonDelta, []string, error) {
	canon := make([]canonDelta, len(deltas))
	relative := make(map[string]int)
	var (
		fresh   []string
		freshID map[string]core.PropID
	)
	for i, d := range deltas {
		if len(d.Props) == 0 {
			return nil, nil, fmt.Errorf("incr: delta %d (%s): no properties", i, d.Op)
		}
		ids := make([]core.PropID, len(d.Props))
		for j, p := range d.Props {
			if p == "" {
				return nil, nil, fmt.Errorf("incr: delta %d (%s): empty property name", i, d.Op)
			}
			id, ok := e.u.Lookup(p)
			if !ok {
				if id, ok = freshID[p]; !ok {
					if freshID == nil {
						freshID = make(map[string]core.PropID)
					}
					id = core.PropID(e.u.Size() + len(fresh))
					freshID[p] = id
					fresh = append(fresh, p)
				}
			}
			ids[j] = id
		}
		set := core.NewPropSet(ids...)
		cd := canonDelta{op: d.Op, set: set, key: set.Key(), cost: d.Cost}
		switch d.Op {
		case OpAdd:
			if set.Len() > core.MaxEnumQueryLen {
				return nil, nil, fmt.Errorf("incr: delta %d: query has %d distinct properties, exceeding the enumeration limit %d",
					i, set.Len(), core.MaxEnumQueryLen)
			}
			relative[cd.key]++
		case OpRemove:
			cur := relative[cd.key]
			if qe := e.queries[cd.key]; qe != nil {
				cur += qe.count
			}
			if cur <= 0 {
				return nil, nil, fmt.Errorf("incr: delta %d: remove of absent query %v", i, d.Props)
			}
			relative[cd.key]--
		case OpUpdateCost:
			if cd.cost < 0 || math.IsNaN(cd.cost) {
				return nil, nil, fmt.Errorf("incr: delta %d: invalid cost %v", i, cd.cost)
			}
		default:
			return nil, nil, fmt.Errorf("incr: delta %d: unknown op %d", i, d.Op)
		}
		canon[i] = cd
	}
	return canon, fresh, nil
}

// addLocked inserts one occurrence of a query, merging components its
// properties bridge. Callers hold mu.
func (e *Engine) addLocked(d canonDelta, res *Result, oldPicks *[]int32) {
	if qe := e.queries[d.key]; qe != nil {
		qe.count++
		return // duplicate queries merge in the instance: solution unchanged
	}

	// Components this query's properties already belong to.
	var ids []int
	for _, p := range d.set {
		if cid := e.propComp[p]; cid != 0 && !slices.Contains(ids, cid) {
			ids = append(ids, cid)
		}
	}

	var target *component
	switch len(ids) {
	case 0:
		target = e.newComponentLocked()
	default:
		// Merge into the largest to minimize relabeling.
		target = e.comps[ids[0]]
		for _, cid := range ids[1:] {
			if len(e.comps[cid].queries) > len(target.queries) {
				target = e.comps[cid]
			}
		}
		for _, cid := range ids {
			if cid == target.id {
				continue
			}
			other := e.comps[cid]
			for _, qe := range other.queries {
				e.attachLocked(target, qe)
			}
			for _, p := range other.freed {
				e.propComp[p] = target.id
			}
			target.freed = append(target.freed, other.freed...)
			if other.rebuild {
				e.markSuspectLocked(target)
			}
			*oldPicks = append(*oldPicks, other.picks...)
			delete(e.comps, cid)
			res.Merged++
		}
	}

	// The batch was validated: the query is non-empty and within the
	// enumeration limit, so the store takes it.
	h, _ := e.enum.Add(d.set)
	qe := &qEntry{set: d.set, key: d.key, count: 1, seq: e.seq, h: h}
	e.seq++
	e.queries[d.key] = qe
	e.attachLocked(target, qe)
	for _, p := range d.set {
		e.propRefs[p]++
	}
	e.markDirtyLocked(target)
	e.lenCount[d.set.Len()]++
}

// attachLocked appends qe to comp's queries and points qe's properties at
// comp. Callers hold mu.
func (e *Engine) attachLocked(comp *component, qe *qEntry) {
	qe.comp, qe.pos = comp.id, len(comp.queries)
	comp.queries = append(comp.queries, qe)
	for _, p := range qe.set {
		e.propComp[p] = comp.id
	}
}

// removeLocked deletes one occurrence of a query, dissolving or marking its
// component for a split recheck. Callers hold mu.
func (e *Engine) removeLocked(d canonDelta, res *Result, oldPicks *[]int32) {
	qe := e.queries[d.key] // present: the batch was validated
	if qe.count > 1 {
		qe.count--
		return
	}
	delete(e.queries, d.key)
	e.lenCount[qe.set.Len()]--
	e.enum.Remove(qe.h)
	comp := e.comps[qe.comp]
	for _, p := range qe.set {
		if e.propRefs[p]--; e.propRefs[p] == 0 {
			comp.freed = append(comp.freed, p)
		}
	}
	last := comp.queries[len(comp.queries)-1]
	comp.queries[qe.pos], last.pos = last, qe.pos
	comp.queries[len(comp.queries)-1] = nil
	comp.queries = comp.queries[:len(comp.queries)-1]
	if len(comp.queries) == 0 {
		e.dropFreedLocked(comp)
		*oldPicks = append(*oldPicks, comp.picks...)
		delete(e.comps, comp.id)
		return
	}
	e.markDirtyLocked(comp)
	e.markSuspectLocked(comp)
}

// dropFreedLocked unmaps comp's freed properties that no query has taken
// back since. Callers hold mu.
func (e *Engine) dropFreedLocked(comp *component) {
	for _, p := range comp.freed {
		if e.propRefs[p] == 0 {
			e.propComp[p] = 0
		}
	}
	comp.freed = nil
}

// updateCostLocked records a cost override and dirties the one component
// that could contain queries testing the classifier. Callers hold mu.
func (e *Engine) updateCostLocked(d canonDelta) {
	e.prices.Put(d.set, d.cost)
	e.enum.SetCost(d.set, d.cost)
	// The classifier can only matter to a query q ⊇ S, and queries live
	// within one component, so S's properties must all map to the same
	// component for any query to be affected.
	cid := 0
	for _, p := range d.set {
		c := e.propComp[p]
		if c == 0 || (cid != 0 && c != cid) {
			return
		}
		cid = c
	}
	// Conservative: the component may contain no superset of S, in which
	// case its re-solve is a cache hit (the signature is unchanged).
	e.markDirtyLocked(e.comps[cid])
}

// newComponentLocked allocates an empty component. Callers hold mu.
func (e *Engine) newComponentLocked() *component {
	c := &component{id: e.nextComp}
	e.nextComp++
	e.comps[c.id] = c
	return c
}

// markDirtyLocked schedules comp's re-solve. Callers hold mu.
func (e *Engine) markDirtyLocked(comp *component) {
	if !comp.dirty {
		comp.dirty = true
		e.dirty = append(e.dirty, comp)
	}
}

// markSuspectLocked schedules comp's connectivity recheck. Callers hold
// mu.
func (e *Engine) markSuspectLocked(comp *component) {
	if !comp.rebuild {
		comp.rebuild = true
		e.suspects = append(e.suspects, comp)
	}
}

// listedLocked sorts the components of list that are still in the load
// and pass keep by id, dropping the others. Callers hold mu.
func (e *Engine) listedLocked(list []*component, keep func(*component) bool) []*component {
	list = slices.DeleteFunc(list, func(c *component) bool { return e.comps[c.id] != c || !keep(c) })
	slices.SortFunc(list, byID)
	return list
}

// resolveLocked rebuilds split-suspect components, handles k = 2 boundary
// crossings, re-solves every dirty component, and fills res. It returns
// the time the re-solves spent assembling instances. Callers hold mu.
func (e *Engine) resolveLocked(ctx context.Context, res *Result, oldPicks *[]int32) (int64, error) {
	// Lazy split rebuild, in ascending id, so that split parts are
	// numbered the same way on every run.
	for _, comp := range e.listedLocked(e.suspects, func(c *component) bool { return c.rebuild }) {
		e.rebuildLocked(comp, res, oldPicks)
	}
	clear(e.suspects)
	e.suspects = e.suspects[:0]

	maxLen := e.maxLenLocked()
	if len(e.queries) > 0 {
		if e.algo == AlgoKTwo && maxLen > 2 {
			return 0, fmt.Errorf("incr: load has max query length %d, but the engine is configured for Algorithm 2 (k ≤ 2)", maxLen)
		}
		// Crossing the k = 2 boundary flips the algorithm dispatch and the
		// prep Step 4 gate for every component: dirty them all.
		gate := maxLen <= 2
		if e.haveGate && gate != e.gate {
			for _, comp := range e.comps {
				e.markDirtyLocked(comp)
			}
		}
		e.gate, e.haveGate = gate, true
	} else {
		e.haveGate = false
	}

	// Collect the dirty components (ascending id, so dispatch order and
	// tracing are deterministic), retiring their old picks before the
	// re-solves overwrite them.
	dirty := e.listedLocked(e.dirty, func(c *component) bool { return c.dirty })
	e.dirty = nil
	for _, comp := range dirty {
		*oldPicks = append(*oldPicks, comp.picks...)
	}

	// Re-solve through the component dispatcher, honoring the engine's
	// Parallelism option (0/1 serial, negative = GOMAXPROCS). Apply holds mu,
	// so workers see stable engine state; each callback writes only its own
	// component. The dispatcher stops on the first failure and leaves the
	// unrun components dirty for the next Apply to retry.
	var buildNS atomic.Int64
	solveErr := solver.ForEachComponent(ctx, len(dirty), e.opts.Parallelism,
		func(i int) int { return len(dirty[i].queries) },
		func(i int) error { return e.solveComponent(ctx, dirty[i], maxLen, &buildNS) })

	var newPicks []int32
	for _, comp := range dirty {
		if comp.dirty {
			e.dirty = append(e.dirty, comp)
			continue
		}
		res.Dirty++
		newPicks = append(newPicks, comp.picks...)
	}

	res.Components = len(e.comps)
	res.Reused = res.Components - len(dirty)
	for _, comp := range e.comps {
		if !comp.dirty {
			res.Cost += comp.cost
		}
	}
	res.Added, res.Removed = e.diffLocked(*oldPicks, newPicks)
	return buildNS.Load(), solveErr
}

// rebuildLocked unmaps comp's freed properties, rechecks its connectivity
// after removals and splits it into fresh components when it fell apart.
// The parts are numbered in the order of their earliest-inserted queries,
// so a split gives the same component ids, and resolveLocked the same
// dispatch order, on every run. Callers hold mu.
func (e *Engine) rebuildLocked(comp *component, res *Result, oldPicks *[]int32) {
	comp.rebuild = false
	e.dropFreedLocked(comp)
	// Union-find over the component's remaining properties.
	sc := &e.split
	sc.grow(e.u.Size())
	defer sc.reset()
	for _, qe := range comp.queries {
		r0 := sc.find(qe.set[0])
		for _, p := range qe.set[1:] {
			if r := sc.find(p); r != r0 {
				sc.parent[r] = r0
			}
		}
	}

	// Number the parts through their roots, noting each part's earliest
	// insertion sequence.
	var first []int64
	for _, qe := range comp.queries {
		r := sc.find(qe.set[0])
		i := sc.part[r]
		if i < 0 {
			i = int32(len(first))
			sc.part[r] = i
			first = append(first, qe.seq)
		}
		first[i] = min(first[i], qe.seq)
	}
	if len(first) == 1 {
		return // still connected
	}

	// Split: dissolve comp into one fresh (dirty) component per part, the
	// parts taking ids in the order of their earliest queries.
	res.Split += len(first) - 1
	*oldPicks = append(*oldPicks, comp.picks...)
	delete(e.comps, comp.id)
	order := make([]int, len(first))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(first[a], first[b]) })
	parts := make([]*component, len(first))
	for _, i := range order {
		parts[i] = e.newComponentLocked()
		e.markDirtyLocked(parts[i])
	}
	for _, qe := range comp.queries {
		e.attachLocked(parts[sc.part[sc.find(qe.set[0])]], qe)
	}
}

// solveComponent re-solves one component: it assembles the component's
// queries, in the order of its query list, into a standalone instance from
// the engine's C_Q store and runs the configured solver with the shared
// cache and the load's ambient query length. The solvers read each residual
// component in its canonical order, so the query order does not matter.
// The assembly time is added to buildNS. Called from scheduler workers
// during Apply (which holds mu): the engine state it reads (store, cost
// model, cache, options) is stable for the duration, and it writes only
// comp, which no other in-flight solve touches.
func (e *Engine) solveComponent(ctx context.Context, comp *component, maxLen int, buildNS *atomic.Int64) error {
	handles := make([]int32, len(comp.queries))
	for i, qe := range comp.queries {
		handles[i] = qe.h
	}
	start := time.Now()
	inst, sids, err := e.enum.Assemble(handles)
	buildNS.Add(int64(time.Since(start)))
	if err != nil {
		return fmt.Errorf("incr: component instance: %w", err)
	}

	fn := solver.General
	if e.algo == AlgoKTwo || (e.algo == AlgoAuto && maxLen <= 2) {
		fn = solver.KTwo
	}
	opts := e.opts
	opts.Context = ctx
	opts.Cache = e.cache
	opts.Tracer = e.tracer
	opts.AmbientQueryLen = maxLen

	sol, err := fn(inst, opts)
	if err != nil {
		return fmt.Errorf("incr: component solve: %w", err)
	}
	// The old picks went to the batch's diff before the re-solves began, so
	// their array is free to take the new ones.
	comp.picks = comp.picks[:0]
	for _, id := range sol.Selected {
		comp.picks = append(comp.picks, sids[id])
	}
	comp.cost = sol.Cost
	comp.dirty = false
	return nil
}

// diffLocked computes the classifier sets entering and leaving the
// solution, as sorted name lists: a new pick is added unless it matches an
// old pick not yet matched, and every distinct old pick left unmatched is
// removed. Picks are store classifier IDs, one per set, so a mark by ID
// (1: unmatched, 0: matched or already listed) does the matching; every
// mark ends at 0. Callers hold mu.
func (e *Engine) diffLocked(oldPicks, newPicks []int32) (added, removed [][]string) {
	marks := e.marks
	for _, v := range oldPicks {
		if n := int(v) + 1; n > len(marks) {
			marks = append(marks, make([]uint8, n-len(marks))...)
		}
		marks[v] = 1
	}
	e.marks = marks
	for _, v := range newPicks {
		if int(v) < len(marks) && marks[v] == 1 {
			marks[v] = 0
			continue
		}
		added = append(added, e.u.SetNames(e.enum.Classifier(v)))
	}
	for _, v := range oldPicks {
		if marks[v] == 1 {
			marks[v] = 0
			removed = append(removed, e.u.SetNames(e.enum.Classifier(v)))
		}
	}
	sortNameSets(added)
	sortNameSets(removed)
	return added, removed
}

// compactLocked runs the store compaction the batch's removals made due,
// once the diff has named the old picks, and renumbers every component's
// picks. A solved component's picks are classifiers of its live queries,
// which the compaction keeps. Callers hold mu.
func (e *Engine) compactLocked() {
	remap := e.enum.Compact()
	if remap == nil {
		return
	}
	for _, comp := range e.comps {
		for i, v := range comp.picks {
			comp.picks[i] = remap[v] - 1
		}
	}
}

// recordLocked folds res into the lifetime counters and metrics. Callers
// hold mu.
func (e *Engine) recordLocked(res *Result) {
	e.stats.Applies++
	e.stats.Deltas += int64(res.Deltas)
	e.stats.Dirtied += int64(res.Dirty)
	e.stats.Reused += int64(res.Reused)
	e.stats.Splits += int64(res.Split)
	e.stats.Merges += int64(res.Merged)

	m := e.metrics
	m.Counter("mc3_incr_applies_total").Inc()
	m.Counter("mc3_incr_deltas_total").Add(int64(res.Deltas))
	m.Counter("mc3_incr_dirty_total").Add(int64(res.Dirty))
	m.Counter("mc3_incr_reused_total").Add(int64(res.Reused))
	m.Counter("mc3_incr_split_total").Add(int64(res.Split))
	m.Counter("mc3_incr_merged_total").Add(int64(res.Merged))
	m.Gauge("mc3_incr_components").Set(float64(len(e.comps)))
	m.Gauge("mc3_incr_queries").Set(float64(len(e.queries)))
	m.Histogram("mc3_incr_apply_seconds").Observe(res.Seconds)
}

// sortNameSets orders a slice of name lists lexicographically so output is
// deterministic regardless of map iteration order.
func sortNameSets(sets [][]string) {
	sort.Slice(sets, func(i, j int) bool {
		a, b := sets[i], sets[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}
