package mc3

// Differential testing for the classifier-universe enumeration kernel:
// NewInstance's hash-indexed, flat-array, shape-memoized build must
// materialize exactly the instance the straightforward per-mask enumeration
// produces. The reference below is the pre-optimization algorithm, kept in
// test form; the comparison runs over all three workload generators, the
// duplicate-heavy shapes the memoization targets, and fuzzed small loads.

import (
	"math"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// refInstance is the reference enumeration: every non-empty subset of every
// query, priced through the cost model, deduplicated by canonical string
// key — the straightforward algorithm NewInstance's hot path optimizes.
type refInstance struct {
	classifiers []PropSet
	costs       []float64
	queryCls    [][]core.QueryClassifier
	clsQueries  [][]int32
	unavailable []PropSet // enumerated subsets the cost model priced +Inf
}

func refEnumerate(t *testing.T, queries []PropSet, cm CostModel, keepDups bool) *refInstance {
	t.Helper()
	return refEnumerateBounded(t, queries, cm, keepDups, 0)
}

// refEnumerateBounded is refEnumerate with the bounded-classifiers option:
// maxLen > 0 skips subsets longer than maxLen.
func refEnumerateBounded(t *testing.T, queries []PropSet, cm CostModel, keepDups bool, maxLen int) *refInstance {
	t.Helper()
	var kept []PropSet
	seen := map[string]bool{}
	for _, q := range queries {
		if !keepDups {
			k := q.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		kept = append(kept, q)
	}
	ref := &refInstance{queryCls: make([][]core.QueryClassifier, len(kept))}
	byKey := map[string]ClassifierID{}
	for qi, q := range kept {
		full := uint64(1)<<uint(q.Len()) - 1
		for mask := uint64(1); mask <= full; mask++ {
			if maxLen > 0 && bits.OnesCount64(mask) > maxLen {
				continue
			}
			sub := q.SubsetByMask(mask)
			key := sub.Key()
			id, ok := byKey[key]
			if !ok {
				c := cm.Cost(sub)
				if math.IsInf(c, 1) {
					byKey[key] = NoClassifier
					ref.unavailable = append(ref.unavailable, sub)
					continue
				}
				id = ClassifierID(len(ref.classifiers))
				ref.classifiers = append(ref.classifiers, sub)
				ref.costs = append(ref.costs, c)
				ref.clsQueries = append(ref.clsQueries, nil)
				byKey[key] = id
			} else if id == NoClassifier {
				continue
			}
			ref.queryCls[qi] = append(ref.queryCls[qi], core.QueryClassifier{ID: id, Mask: mask})
			ref.clsQueries[id] = append(ref.clsQueries[id], int32(qi))
		}
	}
	return ref
}

// compareInstance checks inst against the reference field by field: same
// classifier numbering, costs, per-query classifier lists with masks,
// per-classifier incidence lists, and ClassifierIDOf answers for every
// classifier, every +Inf-priced subset and a set outside every query.
func compareInstance(t *testing.T, name string, inst *Instance, ref *refInstance) {
	t.Helper()
	if inst.NumClassifiers() != len(ref.classifiers) {
		t.Fatalf("%s: %d classifiers, reference has %d", name, inst.NumClassifiers(), len(ref.classifiers))
	}
	for id := 0; id < inst.NumClassifiers(); id++ {
		cid := ClassifierID(id)
		if !inst.Classifier(cid).Equal(ref.classifiers[id]) {
			t.Fatalf("%s: classifier %d = %v, reference %v", name, id, inst.Classifier(cid), ref.classifiers[id])
		}
		if got, ok := inst.ClassifierIDOf(ref.classifiers[id]); !ok || got != cid {
			t.Fatalf("%s: ClassifierIDOf(%v) = %d, %v; want %d, true", name, ref.classifiers[id], got, ok, id)
		}
		if inst.Cost(cid) != ref.costs[id] {
			t.Fatalf("%s: cost(%d) = %v, reference %v", name, id, inst.Cost(cid), ref.costs[id])
		}
		got, want := inst.ClassifierQueries(cid), ref.clsQueries[id]
		if len(got) != len(want) {
			t.Fatalf("%s: classifier %d lists %d queries, reference %d", name, id, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: classifier %d query[%d] = %d, reference %d", name, id, i, got[i], want[i])
			}
		}
	}
	if inst.NumQueries() != len(ref.queryCls) {
		t.Fatalf("%s: %d queries, reference has %d", name, inst.NumQueries(), len(ref.queryCls))
	}
	var maxLen, sumLen int
	for qi := 0; qi < inst.NumQueries(); qi++ {
		got, want := inst.QueryClassifiers(qi), ref.queryCls[qi]
		if len(got) != len(want) {
			t.Fatalf("%s: query %d has %d classifiers, reference %d", name, qi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: query %d classifier[%d] = %+v, reference %+v", name, qi, i, got[i], want[i])
			}
		}
		if l := inst.Query(qi).Len(); l > maxLen {
			maxLen = l
		}
		sumLen += inst.Query(qi).Len()
	}
	if inst.MaxQueryLen() != maxLen {
		t.Errorf("%s: MaxQueryLen = %d, recomputed %d", name, inst.MaxQueryLen(), maxLen)
	}
	if inst.SumQueryLen() != sumLen {
		t.Errorf("%s: SumQueryLen = %d, recomputed %d", name, inst.SumQueryLen(), sumLen)
	}
	for _, s := range ref.unavailable {
		if id, ok := inst.ClassifierIDOf(s); ok {
			t.Fatalf("%s: ClassifierIDOf(%v) = %d for a subset priced +Inf", name, s, id)
		}
	}
	var maxID PropID
	for _, q := range inst.Queries() {
		if last := q[q.Len()-1]; last > maxID {
			maxID = last
		}
	}
	if id, ok := inst.ClassifierIDOf(core.NewPropSet(maxID + 1)); ok {
		t.Fatalf("%s: ClassifierIDOf found %d for a set in no query", name, id)
	}
}

// TestEnumerationDifferentialWorkloads compares the optimized enumeration
// against the reference on all three workload generators.
func TestEnumerationDifferentialWorkloads(t *testing.T) {
	datasets := map[string]*workload.Dataset{
		"synthetic": workload.Synthetic(400, 11),
		"bestbuy":   workload.BestBuy(11),
		"private":   workload.Private(11),
	}
	for name, d := range datasets {
		queries := d.Queries
		if len(queries) > 600 {
			queries = queries[:600]
		}
		for _, keepDups := range []bool{false, true} {
			inst, err := NewInstance(d.Universe, queries, d.Costs, InstanceOptions{KeepDuplicateQueries: keepDups})
			if err != nil {
				t.Fatalf("%s: NewInstance: %v", name, err)
			}
			ref := refEnumerate(t, queries, d.Costs, keepDups)
			label := name
			if keepDups {
				label += "/keep-dups"
			}
			compareInstance(t, label, inst, ref)
		}
	}
}

// TestEnumerationDifferentialDuplicates hammers the shape-memoized path:
// many interleaved duplicates of a few shapes, with some subsets priced
// unavailable so the negative cache is shared across shapes too.
func TestEnumerationDifferentialDuplicates(t *testing.T) {
	u := NewUniverse()
	a, b, c, d, e := u.Intern("a"), u.Intern("b"), u.Intern("c"), u.Intern("d"), u.Intern("e")
	shapes := []PropSet{
		core.NewPropSet(a, b, c),
		core.NewPropSet(b, c),
		core.NewPropSet(c, d, e),
		core.NewPropSet(a),
	}
	var queries []PropSet
	for i := 0; i < 40; i++ {
		queries = append(queries, shapes[i%len(shapes)])
	}
	cm := CostFunc(func(s PropSet) float64 {
		h := int64(17)
		for _, id := range s {
			h = h*31 + int64(id)
		}
		if s.Len() == 2 && h%3 == 0 {
			return math.Inf(1)
		}
		return float64(1 + h%9)
	})
	inst, err := NewInstance(u, queries, cm, InstanceOptions{KeepDuplicateQueries: true})
	if err != nil {
		t.Fatal(err)
	}
	compareInstance(t, "duplicates", inst, refEnumerate(t, queries, cm, true))

	// And the bounded-classifier variant still matches a mask-filtered
	// reference.
	instBounded, err := NewInstance(u, queries, cm, InstanceOptions{MaxClassifierLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < instBounded.NumQueries(); qi++ {
		for _, qc := range instBounded.QueryClassifiers(qi) {
			if got := bits.OnesCount64(qc.Mask); got > 2 {
				t.Fatalf("bounded instance kept a length-%d classifier", got)
			}
		}
	}
}

// FuzzNewInstance compares the kernel against the reference on small random
// loads over at most 12 properties: each pair of input bytes is one query's
// property bitmask, salt decides which subsets are priced +Inf, and the
// duplicate-keeping and bounded-classifier options vary with the input.
//
// It then enumerates the load into a C_Q store and assembles the queries
// pick chooses, one byte per query, in pick's order (repeats only under
// KeepDuplicateQueries), against the reference of that list: as enumerated,
// after SetCost makes one +Inf subset of the list available, and after it
// makes the subset +Inf again.
func FuzzNewInstance(f *testing.F) {
	f.Add([]byte{0x07, 0x00, 0x06, 0x00, 0x07, 0x00, 0x18, 0x00}, uint64(1), false, uint8(0), []byte{3, 0, 1})
	f.Add([]byte{0x07, 0x00, 0x06, 0x00, 0x07, 0x00, 0x18, 0x00}, uint64(7), true, uint8(2), []byte{1, 1, 0, 2, 1})
	f.Add([]byte{0xff, 0x0f, 0x0f, 0x00, 0xf0, 0x0f, 0xff, 0x0f}, uint64(3), true, uint8(3), []byte{2, 0, 2})
	f.Fuzz(func(t *testing.T, load []byte, salt uint64, keepDups bool, maxLen uint8, pick []byte) {
		const maxQueries = 24
		var queries []PropSet
		for i := 0; i+1 < len(load) && len(queries) < maxQueries; i += 2 {
			m := (uint16(load[i]) | uint16(load[i+1])<<8) & 0xfff
			var ids []PropID
			for p := 0; m != 0; p, m = p+1, m>>1 {
				if m&1 != 0 {
					ids = append(ids, PropID(p))
				}
			}
			if len(ids) > 0 {
				queries = append(queries, core.NewPropSet(ids...))
			}
		}
		if len(queries) == 0 {
			return
		}
		cm := CostFunc(func(s PropSet) float64 {
			h := salt ^ 0xcbf29ce484222325
			for _, id := range s {
				h = (h ^ uint64(id)) * 0x100000001b3
			}
			if h%5 == 0 {
				return math.Inf(1)
			}
			return float64(h % 17)
		})
		k := int(maxLen % 13)
		inst, err := NewInstance(NewUniverse(), queries, cm, InstanceOptions{KeepDuplicateQueries: keepDups, MaxClassifierLen: k})
		if err != nil {
			t.Fatalf("NewInstance: %v", err)
		}
		compareInstance(t, "fuzz", inst, refEnumerateBounded(t, queries, cm, keepDups, k))

		store, err := core.NewEnumeration(NewUniverse(), cm, InstanceOptions{MaxClassifierLen: k})
		if err != nil {
			t.Fatalf("NewEnumeration: %v", err)
		}
		var distinct []int32
		var distinctQueries []PropSet
		for _, q := range queries {
			h, err := store.Add(q)
			if err != nil {
				t.Fatalf("Add(%v): %v", q, err)
			}
			if !slices.Contains(distinct, h) {
				distinct = append(distinct, h)
				distinctQueries = append(distinctQueries, q)
			}
		}
		var handles []int32
		var list []PropSet
		for _, b := range pick {
			i := int(b) % len(distinct)
			if !keepDups && slices.Contains(handles, distinct[i]) {
				continue
			}
			handles = append(handles, distinct[i])
			list = append(list, distinctQueries[i])
		}
		if len(handles) == 0 {
			return
		}
		assemble := func(name string, cm CostModel) *refInstance {
			t.Helper()
			inst, _, err := store.Assemble(handles)
			if err != nil {
				t.Fatalf("%s: Assemble: %v", name, err)
			}
			ref := refEnumerateBounded(t, list, cm, true, k)
			compareInstance(t, name, inst, ref)
			return ref
		}
		ref := assemble("assembled", cm)
		if len(ref.unavailable) == 0 {
			return
		}
		flip := ref.unavailable[int(salt>>32)%len(ref.unavailable)]
		flipped := CostFunc(func(s PropSet) float64 {
			if s.Equal(flip) {
				return 4
			}
			return cm.Cost(s)
		})
		if !store.SetCost(flip, 4) {
			t.Fatalf("SetCost(%v): the store does not hold an enumerated subset", flip)
		}
		assemble("made available", flipped)
		store.SetCost(flip, math.Inf(1))
		assemble("made +Inf again", cm)
	})
}

// TestEnumerationAllocsPerClassifier gates the kernel's allocation budget:
// a constant number of flat arrays, the classifiers' property sets among
// them as windows of one arena, not a set, key or row slice per subset.
func TestEnumerationAllocsPerClassifier(t *testing.T) {
	d := workload.Synthetic(2000, 1)
	cm := UniformCost(1)
	inst, err := NewInstance(d.Universe, d.Queries, cm, InstanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := NewInstance(d.Universe, d.Queries, cm, InstanceOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / float64(inst.NumClassifiers()); per > 0.01 {
		t.Errorf("NewInstance allocates %.0f times for %d classifiers (%.4f per classifier), want ≤ 0.01",
			allocs, inst.NumClassifiers(), per)
	}
}
