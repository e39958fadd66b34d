package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// priceOps returns n random table operations for FuzzPriceTable, over IDs
// below 12, so that sets repeat, are overwritten and differ in one member.
func priceOps(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]byte, 0, 6*n)
	for i := 0; i < n; i++ {
		size := rng.Intn(5)
		ops = append(ops, byte(rng.Intn(256)), byte(size))
		for j := 0; j < size; j++ {
			ops = append(ops, byte(rng.Intn(12)))
		}
	}
	return ops
}

// FuzzPriceTable runs one operation sequence on a PriceTable and on a map
// keyed by PropSet.Key, the reference. An operation is an opcode byte (even:
// Put at price opcode/2, odd: Lookup), a size byte n (mod 5), and n member
// bytes (mod 12, so sets collide and repeat). A table made presized (by
// NewPriceTable, for presize sets) or as the zero value must agree with the
// map on every Lookup, on Len, on every set's final price, and, through
// Cost, on the default for each set with one member swapped for an ID
// never put.
func FuzzPriceTable(f *testing.F) {
	f.Add([]byte{4, 2, 1, 2, 5, 2, 2, 1, 8, 2, 1, 2, 7, 2, 1, 2, 9, 1, 3}, uint8(0))
	f.Add([]byte{0, 0, 2, 0, 1, 0, 3, 1, 5}, uint8(1))
	f.Add(priceOps(1, 2000), uint8(0))
	f.Add(priceOps(2, 3000), uint8(200))
	f.Fuzz(func(t *testing.T, ops []byte, presize uint8) {
		const def = 1.5
		table := &PriceTable{Default: def}
		if presize > 0 {
			table = NewPriceTable(def, int(presize), 2*int(presize))
		}
		ref := map[string]float64{}
		for len(ops) >= 2 {
			op, size := ops[0], int(ops[1])%5
			ops = ops[2:]
			ids := make([]PropID, 0, size)
			for ; size > 0 && len(ops) > 0; size-- {
				ids, ops = append(ids, PropID(ops[0]%12)), ops[1:]
			}
			s := NewPropSet(ids...)
			if op%2 == 0 {
				table.Put(s, float64(op/2))
				ref[s.Key()] = float64(op / 2)
				continue
			}
			got, ok := table.Lookup(s)
			want, wantOK := ref[s.Key()]
			if got != want || ok != wantOK {
				t.Fatalf("Lookup(%v) = %v, %v; map gives %v, %v", s, got, ok, want, wantOK)
			}
		}
		if table.Len() != len(ref) {
			t.Fatalf("Len = %d, map holds %d sets", table.Len(), len(ref))
		}
		for key, want := range ref {
			s := KeyToPropSet(key)
			if got := table.Cost(s); got != want {
				t.Fatalf("Cost(%v) = %v, want %v", s, got, want)
			}
			if len(s) == 0 {
				continue
			}
			near := NewPropSet(append(append([]PropID(nil), s[1:]...), 12)...)
			if got := table.Cost(near); got != def {
				t.Fatalf("Cost(%v), one member off %v, = %v, want the default %v", near, s, got, def)
			}
		}
	})
}

// TestPriceTableLookupNoAlloc gates the PriceTable hot path: a lookup, hit
// or miss, and the hashed lookup NewInstance makes, allocate nothing.
func TestPriceTableLookupNoAlloc(t *testing.T) {
	pt := NewPriceTable(math.Inf(1), 1, 3)
	hit, miss := NewPropSet(3, 7, 12), NewPropSet(4, 8)
	pt.Put(hit, 2)
	var hits, misses float64
	if avg := testing.AllocsPerRun(100, func() {
		hits += pt.Cost(hit) + pt.price(setHash(hit), hit)
		misses += pt.Cost(miss)
	}); avg != 0 {
		t.Errorf("PriceTable lookups allocate %.1f times per three, want 0", avg)
	}
	if hits != 4*101 || misses != math.Inf(1) {
		t.Errorf("summed prices: hits %v, want %v; misses %v, want +Inf", hits, 4*101, misses)
	}
}

// TestPriceTableConcurrentReads shares one table among goroutines that
// price every set through Cost and through NewInstance at once, as the
// component solves of a parallel incremental re-solve do; run with -race.
// Each must see every price it was given.
func TestPriceTableConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var queries []PropSet
	for i := 0; i < 300; i++ {
		queries = append(queries, NewPropSet(PropID(rng.Intn(40)), PropID(rng.Intn(40)), PropID(rng.Intn(40))))
	}
	table := NewPriceTable(math.Inf(1), 0, 0)
	for _, q := range queries {
		for mask := uint64(1); mask < 1<<uint(len(q)); mask++ {
			s := q.SubsetByMask(mask)
			table.Put(s, float64(setHash(s)%97))
		}
	}
	u := NewUniverse()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inst, err := NewInstance(u, queries, table, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			for id := 0; id < inst.NumClassifiers(); id++ {
				s := inst.Classifier(ClassifierID(id))
				if want := float64(setHash(s) % 97); inst.Cost(ClassifierID(id)) != want || table.Cost(s) != want {
					t.Errorf("classifier %v: instance price %v, table price %v, want %v",
						s, inst.Cost(ClassifierID(id)), table.Cost(s), want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
