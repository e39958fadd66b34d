package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Enumeration is a store of C_Q rows. It enumerates and prices each
// distinct query's subsets once and keeps the query's row, and it assembles
// an immutable Instance for any list of its queries by copying rows: it
// computes no set hash, prices nothing and walks no subsets.
//
// Add gives each query a handle, a small non-negative int32. A query's row
// lists its subsets (up to Options.MaxClassifierLen properties) in
// ascending mask order, each as a store classifier; the order implies the
// masks. Subsets the cost model prices +Inf stay in the row, so SetCost can
// make one available later, or an available one +Inf, and the instances
// assembled afterwards follow.
//
// Remove retires a query. Its row stays, and a later Add of the same query
// takes it back without enumerating it again. Once retired queries
// outnumber live ones, Compact drops their rows and every classifier no
// live row holds, and frees their handles for later Adds. A live query
// keeps its handle.
//
// Each store classifier has an ID, a small non-negative int32 that stays
// the same until Compact renumbers it; Assemble reports the ID behind each
// of an instance's classifiers.
//
// Assemble calls may run concurrently with each other, not with Add,
// Remove, SetCost or Compact. An instance shares no memory the store
// writes afterwards, so it stays valid and unchanged whatever the store
// does.
type Enumeration struct {
	u  *Universe
	cm CostModel
	// table is cm when cm is a price table: keyed by the same set hash, it
	// prices a subset in one probe, with no rehash and no interface call.
	table  *PriceTable
	kPrime int // longest subset enumerated
	maxQ   int // longest query accepted

	// Per handle: the query (nil for a free handle), its row
	// rows[rowLo[h]:rowHi[h]], and whether it is live or retired.
	queries      []PropSet
	rowLo, rowHi []int32
	live         []bool
	shapes       setIndex // handle by query set, live or retired
	free         []int32  // free handles, reused last first
	nLive, nDead int

	rows []int32 // store classifiers

	// Per store classifier v: its set arena[setOff[v]:setOff[v+1]] and
	// current price. setOff starts with a 0.
	arena  []PropID
	setOff []int32
	costs  []float64
	index  setIndex // store classifier by set

	maskHash []uint64 // enumeration scratch: set hash by mask
}

// NewEnumeration returns an empty store that enumerates queries over u and
// prices their subsets with cm. opts.MaxClassifierLen bounds the subsets
// and opts.MaxQueryLen the queries, as they do for NewInstance;
// opts.KeepDuplicateQueries does not apply, since Assemble keeps every
// handle it is given.
func NewEnumeration(u *Universe, cm CostModel, opts Options) (*Enumeration, error) {
	return newEnumeration(u, cm, opts, 0)
}

// newEnumeration is NewEnumeration with room for queries queries.
func newEnumeration(u *Universe, cm CostModel, opts Options, queries int) (*Enumeration, error) {
	if u == nil {
		return nil, errors.New("core: nil Universe")
	}
	if cm == nil {
		return nil, errors.New("core: nil CostModel")
	}
	e := &Enumeration{
		u:       u,
		cm:      cm,
		kPrime:  opts.MaxClassifierLen,
		maxQ:    opts.MaxQueryLen,
		queries: make([]PropSet, 0, queries),
		rowLo:   make([]int32, 0, queries),
		rowHi:   make([]int32, 0, queries),
		live:    make([]bool, 0, queries),
		shapes:  newSetIndex(queries),
		setOff:  []int32{0},
		index:   newSetIndex(0),
	}
	e.table, _ = cm.(*PriceTable)
	if e.kPrime <= 0 || e.kPrime > MaxEnumQueryLen {
		e.kPrime = MaxEnumQueryLen
	}
	if e.maxQ <= 0 || e.maxQ > MaxEnumQueryLen {
		e.maxQ = MaxEnumQueryLen
	}
	return e, nil
}

// Add returns q's handle, enumerating and pricing q's subsets unless the
// store holds q already; a retired q is taken back with its row. q must
// not be modified afterwards: the store and its instances keep it.
func (e *Enumeration) Add(q PropSet) (int32, error) {
	if q.Empty() {
		return -1, errors.New("core: empty query")
	}
	if q.Len() > e.maxQ {
		return -1, fmt.Errorf("core: query has length %d, exceeding the limit %d", q.Len(), e.maxQ)
	}
	h, fresh := e.intern(q)
	switch {
	case fresh:
		e.reserve(subsetCount(q.Len(), e.kPrime))
		e.enumerate(h, h+1)
	case !e.live[h]:
		e.live[h] = true
		e.nLive++
		e.nDead--
	}
	return h, nil
}

// Remove retires the live query with handle h. Its row stays until
// Compact drops it.
func (e *Enumeration) Remove(h int32) {
	e.live[h] = false
	e.nLive--
	e.nDead++
}

// Compact compacts the store when its retired queries outnumber its live
// ones. It returns the renumbering, by old classifier ID the new ID + 1 or
// 0 for a classifier it dropped, and nil when it did not compact.
func (e *Enumeration) Compact() []int32 {
	if e.nDead <= e.nLive {
		return nil
	}
	return e.compact()
}

// Classifier returns the set of the classifier with ID v: a window of the
// store's arena, which must not be modified, and which keeps that arena
// alive.
func (e *Enumeration) Classifier(v int32) PropSet { return e.set(v) }

// SetCost re-prices the classifier testing exactly s in every row holding
// it, live or retired, and reports whether any row holds it. A subset no
// row holds is priced by the cost model when a query first holds it, so
// the cost model must price s at c as well.
func (e *Enumeration) SetCost(s PropSet, c float64) bool {
	_, v := e.index.find(setHash(s), func(v int32) bool { return e.set(v).Equal(s) })
	if v == emptySlot {
		return false
	}
	e.costs[v] = c
	return true
}

// set returns store classifier v's set, a window of the arena.
func (e *Enumeration) set(v int32) PropSet {
	lo, hi := e.setOff[v], e.setOff[v+1]
	return e.arena[lo:hi:hi]
}

// intern returns q's handle and whether q is new to the store, in which
// case q is live and its row still has to be enumerated.
func (e *Enumeration) intern(q PropSet) (int32, bool) {
	if 2*(e.nLive+e.nDead+1) > len(e.shapes.slots) {
		e.shapes = newSetIndex(max(e.nLive+e.nDead+1, len(e.shapes.slots)))
		for h, q := range e.queries {
			if q != nil {
				e.shapes.insert(setHash(q), int32(h))
			}
		}
	}
	slot, h := e.shapes.find(setHash(q), func(h int32) bool { return e.queries[h].Equal(q) })
	if h != emptySlot {
		return h, false
	}
	if n := len(e.free); n > 0 {
		h, e.free = e.free[n-1], e.free[:n-1]
		e.queries[h], e.live[h] = q, true
	} else {
		h = int32(len(e.queries))
		e.queries = append(e.queries, q)
		e.rowLo = append(e.rowLo, 0)
		e.rowHi = append(e.rowHi, 0)
		e.live = append(e.live, true)
	}
	e.shapes.slots[slot] = h
	e.nLive++
	return h, true
}

// reserve makes room for subsets more classifiers and rows holding
// members properties in all, so that enumerating them allocates nothing.
func (e *Enumeration) reserve(subsets, members int) {
	e.rows = reserved(e.rows, subsets)
	e.arena = reserved(e.arena, members)
	e.setOff = reserved(e.setOff, subsets)
	e.costs = reserved(e.costs, subsets)
	if n := len(e.costs) + subsets; 2*n > len(e.index.slots) {
		e.index = newSetIndex(max(n, len(e.index.slots)))
		for v := range e.costs {
			e.index.insert(setHash(e.set(int32(v))), int32(v))
		}
	}
}

// enumerate walks the subsets of each query with a handle in [lo, hi), in
// ascending mask order, finds each among the store's classifiers or prices
// it as a new one, and writes the query's row at the end of rows.
func (e *Enumeration) enumerate(lo, hi int32) {
	// The arrays are appended to as locals, and stored back at the end.
	rows, arena, setOff, costs := e.rows, e.arena, e.setOff, e.costs
	index, kPrime := e.index, e.kPrime
	for h := lo; h < hi; h++ {
		q := e.queries[h]
		if len(e.maskHash) < 1<<uint(q.Len()) {
			e.maskHash = make([]uint64, 1<<uint(q.Len()))
		}
		// maskHash[mask] is the set hash of the subset mask selects, built
		// from the subset without its lowest member.
		maskHash := e.maskHash
		var propHashes [MaxEnumQueryLen]uint64
		for i, p := range q {
			propHashes[i] = propHash(p)
		}
		e.rowLo[h] = int32(len(rows))
		full := uint64(1)<<uint(q.Len()) - 1
		for mask := uint64(1); mask <= full; mask++ {
			sh := maskHash[mask&(mask-1)] + propHashes[bits.TrailingZeros64(mask)]
			maskHash[mask] = sh
			n := bits.OnesCount64(mask)
			if n > kPrime {
				continue
			}
			slot, v := index.find(sh, func(v int32) bool { return maskEqual(arena[setOff[v]:setOff[v+1]], q, mask, n) })
			if v == emptySlot {
				// The subset is written straight into the arena. The cost
				// model sees the window (CostModel documents that Cost must
				// not retain it). A price Assemble rejects is kept: it
				// fails only the instances that hold the subset.
				at := len(arena)
				for m := mask; m != 0; m &= m - 1 {
					arena = append(arena, q[bits.TrailingZeros64(m)])
				}
				set := PropSet(arena[at:len(arena):len(arena)])
				var c float64
				if e.table != nil {
					c = e.table.price(sh, set)
				} else {
					c = e.cm.Cost(set)
				}
				v = int32(len(costs))
				index.slots[slot] = v
				setOff = append(setOff, int32(len(arena)))
				costs = append(costs, c)
			}
			rows = append(rows, v)
		}
		e.rowHi[h] = int32(len(rows))
	}
	e.rows, e.arena, e.setOff, e.costs = rows, arena, setOff, costs
}

// compact drops the retired queries' rows and the classifiers no live row
// holds, renumbering the kept classifiers in their old order, and frees
// the retired handles. It writes every array afresh, so instances
// assembled before keep what they share with the store. It returns the
// renumbering Compact documents.
func (e *Enumeration) compact() []int32 {
	keep := make([]int32, len(e.costs)) // kept classifier's new ID + 1; 0 drops it
	nRows := 0
	for h, live := range e.live {
		if live {
			for _, v := range e.rows[e.rowLo[h]:e.rowHi[h]] {
				keep[v] = 1
			}
			nRows += int(e.rowHi[h] - e.rowLo[h])
		}
	}
	n, members := 0, 0
	for v, k := range keep {
		if k != 0 {
			n++
			keep[v] = int32(n)
			members += int(e.setOff[v+1] - e.setOff[v])
		}
	}
	arena := make([]PropID, 0, members)
	setOff := append(make([]int32, 0, n+1), 0)
	costs := make([]float64, 0, n)
	e.index = newSetIndex(n)
	for v, k := range keep {
		if k == 0 {
			continue
		}
		set := e.set(int32(v))
		arena = append(arena, set...)
		setOff = append(setOff, int32(len(arena)))
		costs = append(costs, e.costs[v])
		e.index.insert(setHash(set), k-1)
	}

	rows := make([]int32, 0, nRows)
	e.shapes = newSetIndex(e.nLive)
	for h, live := range e.live {
		if !live {
			if e.queries[h] != nil {
				e.queries[h] = nil
				e.free = append(e.free, int32(h))
			}
			e.rowLo[h], e.rowHi[h] = 0, 0
			continue
		}
		lo := len(rows)
		for _, v := range e.rows[e.rowLo[h]:e.rowHi[h]] {
			rows = append(rows, keep[v]-1)
		}
		e.rowLo[h], e.rowHi[h] = int32(lo), int32(len(rows))
		e.shapes.insert(setHash(e.queries[h]), int32(h))
	}
	e.rows, e.arena, e.setOff, e.costs = rows, arena, setOff, costs
	e.nDead = 0
	return keep
}

// assembly is Assemble's scratch: local numbers store classifiers and
// first the queries of handles, both off by one so that zero means unseen,
// and sids lists the classifiers numbered so far, unless the caller keeps
// that list. Every store draws it from one pool, and assemble zeroes what
// it wrote before putting it back, whether it succeeds or not.
type assembly struct {
	local []int32 // by store classifier: instance ID + 1
	first []int32 // by handle: −1 once counted, then the first query's index + 1
	sids  []int32 // by instance ID: store classifier
}

// assemblies pools *assembly for every store. A pool joins the runtime's
// list of pools on first use, so a pool inside each store would keep a
// dropped store reachable until the second collection after it.
var assemblies sync.Pool

// Assemble returns the instance over the queries with the given live
// handles, in list order; a handle listed twice gives two queries sharing
// one row, as KeepDuplicateQueries does. Classifiers are numbered by first
// sighting, each query's row in ascending mask order, and priced at the
// store's current prices, so the instance is the one NewInstance builds
// from the same queries with KeepDuplicateQueries set. The second result
// holds, by instance ClassifierID, the store classifier's ID.
func (e *Enumeration) Assemble(handles []int32) (*Instance, []int32, error) {
	return e.assemble(handles, true)
}

// assemble is Assemble. Unless keepIDs is set, it lists the store
// classifiers in the pooled scratch and returns no IDs.
func (e *Enumeration) assemble(handles []int32, keepIDs bool) (inst *Instance, sids []int32, err error) {
	if len(handles) == 0 {
		return nil, nil, errors.New("core: no queries")
	}
	sc, _ := assemblies.Get().(*assembly)
	if sc == nil {
		sc = new(assembly)
	}
	sc.local = grown(sc.local, len(e.costs))
	sc.first = grown(sc.first, len(e.queries))
	defer func() {
		for _, v := range sids {
			sc.local[v] = 0
		}
		for _, h := range handles {
			if h >= 0 && int(h) < len(sc.first) {
				sc.first[h] = 0
			}
		}
		if !keepIDs {
			sc.sids, sids = sids[:0], nil
		}
		if err != nil {
			inst, sids = nil, nil
		}
		assemblies.Put(sc)
	}()

	// Size every array from the rows of the distinct handles: their length
	// bounds the instance's rows and classifiers.
	inst = &Instance{Universe: e.u, queries: make([]PropSet, len(handles))}
	nRows := 0
	for i, h := range handles {
		if h < 0 || int(h) >= len(e.live) || !e.live[h] {
			return nil, nil, fmt.Errorf("core: handle %d is not a live query", h)
		}
		q := e.queries[h]
		inst.queries[i] = q
		inst.maxQueryLen = max(inst.maxQueryLen, q.Len())
		inst.sumQueryLen += q.Len()
		if sc.first[h] == 0 {
			sc.first[h] = -1
			nRows += int(e.rowHi[h] - e.rowLo[h])
		}
	}
	nCls := min(nRows, len(e.costs))
	if sids = sc.sids[:0]; keepIDs || cap(sids) < nCls {
		sids = make([]int32, 0, nCls)
	}
	classifiers := make([]PropSet, 0, nCls)
	costs := make([]float64, 0, nCls)
	counts := make([]int32, 0, nCls)
	rows := make([]QueryClassifier, 0, nRows)
	inst.queryCls = make([][]QueryClassifier, len(handles))

	// The hot loop reads the store and writes the instance through locals.
	local, prices := sc.local, e.costs
	for i, h := range handles {
		if f := sc.first[h]; f > 0 {
			// A repeat shares its first occurrence's row.
			inst.queryCls[i] = inst.queryCls[f-1]
			for _, qc := range inst.queryCls[i] {
				counts[qc.ID]++
			}
			continue
		}
		sc.first[h] = int32(i) + 1
		lo := len(rows)
		mask := uint64(0)
		for _, v := range e.rows[e.rowLo[h]:e.rowHi[h]] {
			mask = e.nextMask(mask)
			c := prices[v]
			if math.IsInf(c, 1) {
				continue // unavailable: omitted from the instance
			}
			id := local[v] - 1
			if id < 0 {
				set := e.set(v)
				if c < 0 || math.IsNaN(c) {
					return nil, sids, fmt.Errorf("core: cost model returned invalid cost %v for classifier %v", c, set)
				}
				id = int32(len(classifiers))
				local[v] = id + 1
				sids = append(sids, v)
				classifiers = append(classifiers, set)
				costs = append(costs, c)
				counts = append(counts, 0)
				inst.totalFiniteCost += c
				inst.maxClassifierLen = max(inst.maxClassifierLen, set.Len())
			}
			rows = append(rows, QueryClassifier{ID: ClassifierID(id), Mask: mask})
			counts[id]++
		}
		inst.queryCls[i] = rows[lo:len(rows):len(rows)]
	}
	inst.classifiers, inst.costs = classifiers, costs
	inst.fillIncidence(counts)
	return inst, sids, nil
}

// nextMask returns the first mask after mask that selects at most k'
// properties: the mask of a row's entry after the one mask belongs to.
func (e *Enumeration) nextMask(mask uint64) uint64 {
	for mask++; bits.OnesCount64(mask) > e.kPrime; mask++ {
	}
	return mask
}

// fillIncidence builds the incidence lists from each classifier's query
// count, count-then-fill into one flat array: counts[id] becomes id's fill
// cursor, starting at its window's offset, and ends at the offset of the
// next window, which is the end offset clsEnd keeps. Filling in query
// order keeps every list ascending.
func (inst *Instance) fillIncidence(counts []int32) {
	total := int32(0)
	for id, c := range counts {
		counts[id] = total
		total += c
	}
	inst.clsQueries = make([]int32, total)
	for qi, row := range inst.queryCls {
		for _, qc := range row {
			inst.clsQueries[counts[qc.ID]] = int32(qi)
			counts[qc.ID]++
		}
	}
	inst.clsEnd = counts
}

// reserved returns s with room for n more elements, doubling its capacity
// at least when it grows. Unlike slices.Grow, it clears no memory that
// make has already cleared.
func reserved[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	t := make([]T, len(s), max(2*cap(s), len(s)+n))
	copy(t, s)
	return t
}

// grown returns s with at least n elements, the new ones zero.
func grown(s []int32, n int) []int32 {
	if len(s) < n {
		s = append(s, make([]int32, n-len(s))...)
	}
	return s
}
