package solver

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/prep"
)

// orderFuzzLoad is a small load decoded from fuzz bytes: the same queries in
// two orders over one universe, with their cost model.
type orderFuzzLoad struct {
	u                 *core.Universe
	queries, permuted []core.PropSet
	costs             core.CostModel
	opts              core.Options
	level             prep.Level
}

// decodeOrderLoad decodes data into a load over at most 8 properties.
// Layout: a property count, a query count, a flags byte, a permutation
// seed, one byte per query (its property mask), and the remaining bytes as
// a cost table that each subset indexes by a hash of its property mask. A
// cost byte prices its subset +Inf (0–15), 0 (16–31), or a small integer or
// a third of one. Flag bit 0 keeps duplicate queries, bit 1 preprocesses
// minimally. It reports false when data is too short.
func decodeOrderLoad(data []byte) (orderFuzzLoad, bool) {
	if len(data) < 4 {
		return orderFuzzLoad{}, false
	}
	nProps := 1 + int(data[0])%8
	nQueries := 1 + int(data[1])%16
	flags, seed := data[2], int64(data[3])
	data = data[4:]
	if len(data) < nQueries {
		return orderFuzzLoad{}, false
	}
	l := orderFuzzLoad{
		u:     core.NewUniverse(),
		opts:  core.Options{KeepDuplicateQueries: flags&1 != 0},
		level: prep.Full,
	}
	if flags&2 != 0 {
		l.level = prep.Minimal
	}
	for i := 0; i < nProps; i++ {
		l.u.Intern(string(rune('a' + i)))
	}
	full := uint8(1)<<uint(nProps) - 1
	for i := 0; i < nQueries; i++ {
		mask := data[i] & full
		if mask == 0 {
			mask = 1 << (uint(i) % uint(nProps))
		}
		var q core.PropSet
		for m := mask; m != 0; m &= m - 1 {
			q = append(q, core.PropID(bits.TrailingZeros8(m)))
		}
		l.queries = append(l.queries, q)
	}
	for _, i := range rand.New(rand.NewSource(seed)).Perm(nQueries) {
		l.permuted = append(l.permuted, l.queries[i])
	}
	table := data[nQueries:]
	l.costs = core.CostFunc(func(s core.PropSet) float64 {
		if len(table) == 0 {
			return 1
		}
		var g uint64
		for _, p := range s {
			g |= 1 << uint(p)
		}
		b := table[(g*0x9E3779B97F4A7C15>>40)%uint64(len(table))]
		switch {
		case b < 16:
			return math.Inf(1)
		case b < 32:
			return 0
		case b < 96:
			return float64(b%16) / 3
		default:
			return float64(b % 16)
		}
	})
	return l, true
}

// prep builds the instance of queries and preprocesses it; nil when it is
// infeasible.
func (l orderFuzzLoad) prep(queries []core.PropSet) *prep.Result {
	inst, err := core.NewInstance(l.u, queries, l.costs, l.opts)
	if err != nil {
		return nil
	}
	r, err := prep.Run(inst, l.level)
	if err != nil {
		return nil
	}
	return r
}

// querySetKey names a component by its sorted query keys, which no query
// order changes.
func querySetKey(inst *core.Instance, comp []int) string {
	keys := make([]string, len(comp))
	for i, qi := range comp {
		keys[i] = inst.Query(qi).Key()
	}
	slices.Sort(keys)
	return strings.Join(keys, "|")
}

// FuzzComponentOrder checks that a permutation of a load's queries leaves
// every residual component's canonical form unchanged: the key built from
// one order finds the cache entry stored under the other (the key bytes are
// identical), and the set-cover reductions have the same sets as property
// sets, the same costs and the same element lists. Its seeds are 2,000
// random byte strings.
func FuzzComponentOrder(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		seed := make([]byte, 4+rng.Intn(16+96))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l, ok := decodeOrderLoad(data)
		if !ok {
			return
		}
		r1, r2 := l.prep(l.queries), l.prep(l.permuted)
		if r1 == nil || r2 == nil {
			if (r1 == nil) != (r2 == nil) {
				t.Fatal("the permutation changed feasibility")
			}
			return
		}
		if len(r1.Components) != len(r2.Components) {
			t.Fatalf("%d components, %d after the permutation", len(r1.Components), len(r2.Components))
		}
		permuted := make(map[string][]int, len(r2.Components))
		for _, comp := range r2.Components {
			permuted[querySetKey(r2.Inst, comp)] = comp
		}
		c := cache.New(cache.Config{})
		for ci, comp := range r1.Components {
			comp2, ok := permuted[querySetKey(r1.Inst, comp)]
			if !ok {
				t.Fatalf("component %d has no counterpart after the permutation", ci)
			}
			cc1, k1 := cache.Canonical(c, "d", r1, comp)
			cc2, k2 := cache.Canonical(c, "d", r2, comp2)
			c.Store(k1, nil)
			_, hit := c.Lookup(k2)
			sc1, ids1 := buildWSC(r1, cc1)
			sc2, ids2 := buildWSC(r2, cc2)
			cc1.Release()
			cc2.Release()
			if !hit {
				t.Fatalf("component %d: the permutation changed the key bytes", ci)
			}
			if sc1.NumElements() != sc2.NumElements() || sc1.NumSets() != sc2.NumSets() {
				t.Fatalf("component %d: %d elements and %d sets, %d and %d after the permutation",
					ci, sc1.NumElements(), sc1.NumSets(), sc2.NumElements(), sc2.NumSets())
			}
			for s := 0; s < sc1.NumSets(); s++ {
				a, b := r1.Inst.Classifier(ids1[s]), r2.Inst.Classifier(ids2[s])
				if !a.Equal(b) || sc1.Cost(s) != sc2.Cost(s) || !slices.Equal(sc1.Set(s), sc2.Set(s)) {
					t.Fatalf("component %d: set %d is %v at %v over %v, and %v at %v over %v after the permutation",
						ci, s, a, sc1.Cost(s), sc1.Set(s), b, sc2.Cost(s), sc2.Set(s))
				}
			}
		}
	})
}
