package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
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
// Instances are immutable after construction; solvers layer their own mutable
// state (effective costs, selections) on top.
type Instance struct {
	Universe *Universe

	queries     []PropSet
	classifiers []PropSet
	costs       []float64
	index       setIndex // C_Q by property set; +Inf subsets stay as tombstones

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
// a function of the load's presentation alone.
func NewInstance(u *Universe, queries []PropSet, cm CostModel, opts Options) (*Instance, error) {
	if u == nil {
		return nil, errors.New("core: nil Universe")
	}
	if cm == nil {
		return nil, errors.New("core: nil CostModel")
	}
	maxQ := opts.MaxQueryLen
	if maxQ <= 0 || maxQ > MaxEnumQueryLen {
		maxQ = MaxEnumQueryLen
	}

	// Group the load by query shape. shapeQuery[s] is the first query of
	// shape s, shapeOf[qi] the shape of query qi, and shapeMult[s] the
	// number of kept queries of that shape (1 unless KeepDuplicateQueries):
	// a repeated query shares its first occurrence's row, so C_Q is walked
	// once per distinct shape.
	inst := &Instance{Universe: u, queries: make([]PropSet, 0, len(queries))}
	var (
		shapes     = newSetIndex(len(queries))
		shapeQuery = make([]int32, 0, len(queries))
		shapeMult  = make([]int32, 0, len(queries))
		shapeOf    = make([]int32, 0, len(queries))
	)
	for qi, q := range queries {
		if q.Empty() {
			return nil, fmt.Errorf("core: query %d is empty", qi)
		}
		if q.Len() > maxQ {
			return nil, fmt.Errorf("core: query %d has length %d, exceeding the limit %d", qi, q.Len(), maxQ)
		}
		slot, s := shapes.find(setHash(q), func(s int32) bool { return inst.queries[shapeQuery[s]].Equal(q) })
		if s < 0 {
			s = int32(len(shapeQuery))
			shapes.slots[slot] = s
			shapeQuery = append(shapeQuery, int32(len(inst.queries)))
			shapeMult = append(shapeMult, 0)
		} else if !opts.KeepDuplicateQueries {
			continue
		}
		shapeMult[s]++
		shapeOf = append(shapeOf, s)
		inst.queries = append(inst.queries, q)
		if q.Len() > inst.maxQueryLen {
			inst.maxQueryLen = q.Len()
		}
		inst.sumQueryLen += q.Len()
	}
	if len(inst.queries) == 0 {
		return nil, errors.New("core: no queries")
	}

	kPrime := opts.MaxClassifierLen
	if kPrime <= 0 || kPrime > inst.maxQueryLen {
		kPrime = inst.maxQueryLen
	}

	// The per-classifier and per-row arrays are sized once from the subset
	// count Σ_shapes Σ_{j≤k'} C(|q|, j): an upper bound on |C_Q|, and the
	// exact row count when no subset is priced +Inf. The classifiers' sets
	// are carved from one arena sized by the member count
	// Σ_shapes Σ_{j≤k'} j·C(|q|, j), an upper bound on Σ_{S∈C_Q} |S|.
	subsets, members := 0, 0
	for _, qi := range shapeQuery {
		n, m := subsetCount(inst.queries[qi].Len(), kPrime)
		subsets += n
		members += m
	}
	arena := make([]PropID, 0, members)
	inst.classifiers = make([]PropSet, 0, subsets)
	inst.costs = make([]float64, 0, subsets)
	inst.index = newSetIndex(subsets)
	rows := make([]QueryClassifier, 0, subsets)
	rowOff := make([]int32, 1, len(shapeQuery)+1) // shape s owns rows[rowOff[s]:rowOff[s+1]]
	incidence := make([]int32, 0, subsets)        // per classifier: queries containing it

	// +Inf verdicts stay in the index as tombstones, so a subset is priced
	// once. A tombstone's slot holds −2−off, where tombs[off] is the subset's
	// length and its members follow; tombs lives only for the build.
	var tombs []PropID

	// hashes[mask] is the set hash of the subset mask selects, built from
	// the subset without its lowest member.
	hashes := make([]uint64, 1<<uint(inst.maxQueryLen))
	var propHashes [MaxEnumQueryLen]uint64
	// A PriceTable is keyed by the same hash, so it prices a subset in one
	// probe with no rehash and no interface call.
	table, _ := cm.(*PriceTable)

	for s, qi := range shapeQuery {
		q := inst.queries[qi]
		for i, p := range q {
			propHashes[i] = propHash(p)
		}
		full := uint64(1)<<uint(q.Len()) - 1
		for mask := uint64(1); mask <= full; mask++ {
			h := hashes[mask&(mask-1)] + propHashes[bits.TrailingZeros64(mask)]
			hashes[mask] = h
			n := bits.OnesCount64(mask)
			if n > kPrime {
				continue
			}
			slot, v := inst.index.find(h, func(v int32) bool {
				if v >= 0 {
					return maskEqual(inst.classifiers[v], q, mask, n)
				}
				off := -2 - v
				return maskEqual(tombs[off+1:off+1+int32(tombs[off])], q, mask, n)
			})
			if v == emptySlot {
				// The subset is written straight into the arena, where it
				// stays if it is priced below +Inf. Every classifier's set
				// is a window of the arena, so the instance holds them all
				// in one allocation; a caller that keeps some beyond the
				// instance copies them out (CopyClassifiers) rather than
				// keep the arena alive. The cost model sees the window
				// (CostModel documents that Cost must not retain it).
				lo := len(arena)
				for m := mask; m != 0; m &= m - 1 {
					arena = append(arena, q[bits.TrailingZeros64(m)])
				}
				set := PropSet(arena[lo:len(arena):len(arena)])
				var c float64
				if table != nil {
					c = table.price(h, set)
				} else {
					c = cm.Cost(set)
				}
				if c < 0 || math.IsNaN(c) {
					return nil, fmt.Errorf("core: cost model returned invalid cost %v for classifier %v", c, set)
				}
				if math.IsInf(c, 1) {
					// Unavailable classifiers are omitted from the input
					// entirely; remember the verdict to avoid re-pricing.
					inst.index.slots[slot] = -2 - int32(len(tombs))
					tombs = append(append(tombs, PropID(n)), set...)
					arena = arena[:lo]
					continue
				}
				v = int32(len(inst.classifiers))
				inst.index.slots[slot] = v
				inst.classifiers = append(inst.classifiers, set)
				inst.costs = append(inst.costs, c)
				incidence = append(incidence, 0)
				inst.totalFiniteCost += c
				if n > inst.maxClassifierLen {
					inst.maxClassifierLen = n
				}
			} else if v < 0 {
				continue
			}
			rows = append(rows, QueryClassifier{ID: ClassifierID(v), Mask: mask})
			incidence[v] += shapeMult[s]
		}
		rowOff = append(rowOff, int32(len(rows)))
	}

	// Rows are windows of the flat row array, shared by a shape's queries.
	inst.queryCls = make([][]QueryClassifier, len(inst.queries))
	for qi, s := range shapeOf {
		lo, hi := rowOff[s], rowOff[s+1]
		inst.queryCls[qi] = rows[lo:hi:hi]
	}

	// Incidence lists, count-then-fill into one flat array: incidence[id]
	// becomes id's fill cursor, starting at its window's offset, and ends at
	// the offset of the next window, which is the end offset clsEnd keeps.
	// Filling in query order keeps every list ascending.
	total := int32(0)
	for id, c := range incidence {
		incidence[id] = total
		total += c
	}
	inst.clsQueries = make([]int32, total)
	for qi, row := range inst.queryCls {
		for _, qc := range row {
			inst.clsQueries[incidence[qc.ID]] = int32(qi)
			incidence[qc.ID]++
		}
	}
	inst.clsEnd = incidence
	return inst, nil
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
// part of the instance's universe.
func (inst *Instance) ClassifierIDOf(s PropSet) (ClassifierID, bool) {
	// A tombstone never matches: its set, if equal to s, is in no classifier.
	_, v := inst.index.find(setHash(s), func(v int32) bool {
		return v >= 0 && inst.classifiers[v].Equal(s)
	})
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
