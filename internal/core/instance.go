package core

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// CostModel assigns a construction cost to every candidate classifier.
// Returning math.Inf(1) means the classifier is unavailable (the paper models
// classifiers that are omitted from the input as having infinite weight).
// Costs must be non-negative.
//
// The PropSet passed to Cost may be a buffer the caller reuses after Cost
// returns (instance construction enumerates the classifier universe through
// one scratch set): implementations must not retain it — copy it with
// NewPropSet(s...) if a reference must outlive the call.
type CostModel interface {
	Cost(s PropSet) float64
}

// CostFunc adapts a plain function to the CostModel interface.
type CostFunc func(PropSet) float64

// Cost implements CostModel.
func (f CostFunc) Cost(s PropSet) float64 { return f(s) }

// UniformCost is a CostModel that prices every classifier at a fixed cost,
// matching the restricted model of the paper's predecessor [13] and the
// BestBuy dataset.
type UniformCost float64

// Cost implements CostModel.
func (c UniformCost) Cost(PropSet) float64 { return float64(c) }

// CostTable is a CostModel backed by an explicit map from PropSet keys to
// costs. Classifiers absent from the table get Default (use math.Inf(1) to
// make unlisted classifiers unavailable). PriceTable holds the same prices
// flat and prices an instance build faster.
type CostTable struct {
	Costs   map[string]float64
	Default float64
}

// NewCostTable returns an empty table with the given default cost.
func NewCostTable(def float64) *CostTable {
	return &CostTable{Costs: make(map[string]float64), Default: def}
}

// Set assigns cost c to the classifier testing exactly the properties in s.
func (t *CostTable) Set(s PropSet, c float64) { t.Costs[s.Key()] = c }

// Cost implements CostModel.
func (t *CostTable) Cost(s PropSet) float64 {
	var buf [4 * MaxEnumQueryLen]byte
	// Indexing a map by string(bytes) does not allocate; sets longer than the
	// stack buffer (impossible for enumerated classifiers) fall back to an
	// appended key.
	if c, ok := t.Costs[string(s.AppendKey(buf[:0]))]; ok {
		return c
	}
	return t.Default
}

// ClassifierID indexes a classifier within an Instance.
type ClassifierID int32

// NoClassifier is the invalid ClassifierID.
const NoClassifier ClassifierID = -1

// QueryClassifier is a classifier viewed from inside a particular query: its
// instance-wide ID plus the bitmask of the query's properties it tests (bit i
// corresponds to the i-th property of the query's canonical PropSet order).
type QueryClassifier struct {
	ID   ClassifierID
	Mask uint64
}

// Options configure instance construction.
type Options struct {
	// MaxClassifierLen bounds the length of enumerated classifiers (the
	// paper's k' < k "bounded classifiers" variant, Section 5.3). Zero means
	// no bound beyond query length.
	MaxClassifierLen int
	// MaxQueryLen rejects queries longer than this during construction.
	// Zero means the built-in enumeration safety limit (MaxEnumQueryLen).
	MaxQueryLen int
	// KeepDuplicateQueries retains duplicate queries instead of merging
	// them. The paper assumes a set of distinct queries; duplicates are
	// merged by default.
	KeepDuplicateQueries bool
}

// MaxEnumQueryLen is the hard cap on query length: the classifier universe of
// a query of length L has 2^L−1 members, so enumeration beyond this is
// rejected rather than silently exploding. The paper notes queries beyond
// length 10 are rare in practice and omitted from its synthetic workload.
const MaxEnumQueryLen = 20

// Instance is a fully materialized MC³ problem: the query load Q, the
// classifier universe C_Q (every non-empty subset of a query priced below
// +Inf by the cost model), and per-query / per-classifier cross-indexes.
//
// Instances are immutable after construction, apart from the index
// ClassifierIDOf reads, which the first call builds once and which is safe
// for concurrent readers. Solvers layer their own mutable state (effective
// costs, selections) on top.
type Instance struct {
	Universe *Universe

	queries     []PropSet
	classifiers []PropSet
	costs       []float64

	indexOnce sync.Once
	index     setIndex // C_Q by property set, built by ClassifierIDOf

	queryCls [][]QueryClassifier // per query: available classifiers ⊆ q
	// Per classifier, the ascending indices of queries containing it: id's
	// list is clsQueries up to clsEnd[id], from clsEnd[id-1] (0 for id 0).
	clsQueries []int32
	clsEnd     []int32

	maxQueryLen      int
	maxClassifierLen int
	sumQueryLen      int
	totalFiniteCost  float64
}

// NewInstance materializes an MC³ instance from a query load and a cost
// model. Queries must be non-empty; duplicates are merged unless
// opts.KeepDuplicateQueries is set. The classifier universe C_Q is enumerated
// per Section 2.1: every non-empty subset of every query, keeping those the
// cost model prices below +Inf.
//
// Classifiers are numbered in order of first sighting (queries in load
// order, each query's subsets in ascending mask order), so the numbering is
// a function of the load's presentation alone. NewInstance enumerates the
// load into a fresh Enumeration and assembles all of it.
func NewInstance(u *Universe, queries []PropSet, cm CostModel, opts Options) (*Instance, error) {
	e, err := newEnumeration(u, cm, opts, len(queries))
	if err != nil {
		return nil, err
	}

	// A repeated query gets its first occurrence's handle, so C_Q is walked
	// once per distinct query, and the instance lists it again only under
	// KeepDuplicateQueries, sharing the first occurrence's row.
	handles := make([]int32, 0, len(queries))
	subsets, members, maxLen := 0, 0, 0
	for qi, q := range queries {
		if q.Empty() {
			return nil, fmt.Errorf("core: query %d is empty", qi)
		}
		if q.Len() > e.maxQ {
			return nil, fmt.Errorf("core: query %d has length %d, exceeding the limit %d", qi, q.Len(), e.maxQ)
		}
		h, fresh := e.intern(q)
		if fresh {
			n, m := subsetCount(q.Len(), e.kPrime)
			subsets += n
			members += m
			maxLen = max(maxLen, q.Len())
		} else if !opts.KeepDuplicateQueries {
			continue
		}
		handles = append(handles, h)
	}
	if len(handles) == 0 {
		return nil, errors.New("core: no queries")
	}

	// The store's arrays are sized once from the subset count
	// Σ_queries Σ_{j≤k'} C(|q|, j): an upper bound on |C_Q|, and the exact
	// row count. The classifiers' sets are carved from one arena sized by
	// the member count Σ_queries Σ_{j≤k'} j·C(|q|, j).
	e.reserve(subsets, members)
	e.maskHash = make([]uint64, 1<<uint(maxLen))
	e.enumerate(0, int32(len(e.queries)))
	inst, _, err := e.assemble(handles, false)
	return inst, err
}

// subsetCount returns Σ_{1≤j≤min(k,l)} C(l, j), the number of classifiers of
// length at most k a length-l query has, and Σ_{1≤j≤min(k,l)} j·C(l, j),
// the number of properties they hold together.
func subsetCount(l, k int) (subsets, members int) {
	if k >= l {
		return 1<<uint(l) - 1, l << uint(l-1)
	}
	c := 1
	for j := 1; j <= k; j++ {
		c = c * (l - j + 1) / j
		subsets += c
		members += j * c
	}
	return subsets, members
}

// maskEqual reports whether s is the subset of q that mask selects; n is the
// number of set bits in mask.
func maskEqual(s, q PropSet, mask uint64, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; mask != 0; mask &= mask - 1 {
		if s[i] != q[bits.TrailingZeros64(mask)] {
			return false
		}
		i++
	}
	return true
}

// emptySlot marks an unused setIndex slot.
const emptySlot = -1

// setIndex is an open-addressed hash index over property sets with linear
// probing. Slots hold emptySlot or a caller-defined int32: the index keeps
// no keys of its own, so find takes the probed set's hash and an equality
// test against the value stored in a slot.
type setIndex struct {
	slots []int32
	shift uint
}

// newSetIndex returns an index for up to n values at load factor ≤ 1/2.
func newSetIndex(n int) setIndex {
	size := 2
	for size < 2*n {
		size <<= 1
	}
	slots := make([]int32, size)
	for i := range slots {
		slots[i] = emptySlot
	}
	return setIndex{slots: slots, shift: uint(64 - bits.TrailingZeros(uint(size)))}
}

// insert stores v, whose set the index does not hold yet, under hash h.
func (x setIndex) insert(h uint64, v int32) {
	slot, _ := x.find(h, func(int32) bool { return false })
	x.slots[slot] = v
}

// find probes for the set with hash h. It returns the slot holding the value
// eq accepts, or the empty slot where such a value belongs and emptySlot.
func (x setIndex) find(h uint64, eq func(int32) bool) (int, int32) {
	mask := len(x.slots) - 1
	// Fibonacci hashing: the top bits of h·φ pick the home slot.
	for i := int((h * 0x9e3779b97f4a7c15) >> x.shift); ; i = (i + 1) & mask {
		if v := x.slots[i]; v == emptySlot || eq(v) {
			return i, v
		}
	}
}

// propHash scrambles one property ID (the splitmix64 finalizer).
func propHash(p PropID) uint64 {
	z := uint64(p) + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// setHash is the hash setIndex keys a set by: the sum of its members'
// propHash values. A sum is order-free, so the enumeration extends a
// subset's hash by one member with one addition.
func setHash(s PropSet) uint64 {
	var h uint64
	for _, p := range s {
		h += propHash(p)
	}
	return h
}

// NumQueries returns n, the number of (distinct) queries.
func (inst *Instance) NumQueries() int { return len(inst.queries) }

// Query returns the i-th query.
func (inst *Instance) Query(i int) PropSet { return inst.queries[i] }

// Queries returns the query load. The returned slice must not be modified.
func (inst *Instance) Queries() []PropSet { return inst.queries }

// NumClassifiers returns m̂, the size of the classifier universe C_Q
// (finite-cost classifiers only).
func (inst *Instance) NumClassifiers() int { return len(inst.classifiers) }

// Classifier returns the property set tested by classifier id. The set is
// a window of an array the instance shares among all its classifiers: it
// must not be modified, and a caller keeping sets after it drops the
// instance copies them with CopyClassifiers.
func (inst *Instance) Classifier(id ClassifierID) PropSet { return inst.classifiers[id] }

// CopyClassifiers returns copies of the property sets of classifiers ids,
// carved from one allocation of their own, so keeping them does not keep
// the instance's classifier array alive.
func (inst *Instance) CopyClassifiers(ids []ClassifierID) []PropSet {
	n := 0
	for _, id := range ids {
		n += len(inst.classifiers[id])
	}
	arena := make([]PropID, 0, n)
	out := make([]PropSet, len(ids))
	for i, id := range ids {
		lo := len(arena)
		arena = append(arena, inst.classifiers[id]...)
		out[i] = arena[lo:len(arena):len(arena)]
	}
	return out
}

// Cost returns the construction cost of classifier id.
func (inst *Instance) Cost(id ClassifierID) float64 { return inst.costs[id] }

// Costs returns the full cost vector indexed by ClassifierID. The returned
// slice must not be modified; copy it to derive effective costs.
func (inst *Instance) Costs() []float64 { return inst.costs }

// ClassifierIDOf returns the ID of the classifier testing exactly s, if it is
// part of the instance's universe. The first call indexes the classifiers
// by set, so an instance nobody asks builds no index.
func (inst *Instance) ClassifierIDOf(s PropSet) (ClassifierID, bool) {
	inst.indexOnce.Do(func() {
		inst.index = newSetIndex(len(inst.classifiers))
		for id, c := range inst.classifiers {
			inst.index.insert(setHash(c), int32(id))
		}
	})
	_, v := inst.index.find(setHash(s), func(v int32) bool { return inst.classifiers[v].Equal(s) })
	return ClassifierID(v), v >= 0
}

// QueryClassifiers returns the classifiers available for query i (all
// finite-cost subsets of the query), with query-local bitmasks. The returned
// slice must not be modified.
func (inst *Instance) QueryClassifiers(i int) []QueryClassifier { return inst.queryCls[i] }

// ClassifierQueries returns the indices of queries that contain classifier
// id's property set — the incidence list Q_S. The returned slice must not be
// modified.
func (inst *Instance) ClassifierQueries(id ClassifierID) []int32 {
	lo, hi := inst.clsStart(id), inst.clsEnd[id]
	return inst.clsQueries[lo:hi:hi]
}

// Incidence returns I(S) for classifier id: the number of queries containing
// its property set.
func (inst *Instance) Incidence(id ClassifierID) int { return int(inst.clsEnd[id] - inst.clsStart(id)) }

// clsStart is the offset of id's incidence list in clsQueries.
func (inst *Instance) clsStart(id ClassifierID) int32 {
	if id == 0 {
		return 0
	}
	return inst.clsEnd[id-1]
}

// MaxQueryLen returns k, the maximal query length.
func (inst *Instance) MaxQueryLen() int { return inst.maxQueryLen }

// MaxClassifierLen returns the maximal classifier length present (k' when
// the bounded-classifiers option is used, otherwise ≤ k).
func (inst *Instance) MaxClassifierLen() int { return inst.maxClassifierLen }

// SumQueryLen returns n̂ = Σ|q|, the universe size of the WSC reduction.
func (inst *Instance) SumQueryLen() int { return inst.sumQueryLen }

// TotalFiniteCost returns the sum of all classifier costs — a safe finite
// stand-in for +Inf in capacity-based reductions.
func (inst *Instance) TotalFiniteCost() float64 { return inst.totalFiniteCost }

// FullMask returns the bitmask covering all properties of query i.
func (inst *Instance) FullMask(i int) uint64 {
	return uint64(1)<<uint(inst.queries[i].Len()) - 1
}
