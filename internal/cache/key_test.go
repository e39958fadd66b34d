package cache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/hardness"
	"repro/internal/prep"
	"repro/internal/workload"
)

// refComponentKey is the straightforward signature builder the key kernel
// replaced, kept as the reference it is checked against: a string per
// query fingerprint, a sort over fingerprint records (largest first, then
// the property-ID tuple, then the component position), classifiers
// numbered through a map, and a key buffer grown append by append.
func refComponentKey(domain string, r *prep.Result, comp []int) Key {
	if len(comp) == 0 {
		return Key{}
	}
	inst := r.Inst
	type queryFP struct {
		fp  string // local fingerprint bytes (no cross-query identity)
		qi  int    // instance query index
		pos int    // original position within the component (tie-break)
	}
	fps := make([]queryFP, len(comp))
	var scratch []byte
	for i, qi := range comp {
		scratch = scratch[:0]
		scratch = binary.AppendUvarint(scratch, uint64(inst.Query(qi).Len()))
		scratch = binary.AppendUvarint(scratch, r.CoveredMask[qi])
		for _, qc := range inst.QueryClassifiers(qi) {
			if r.Removed[qc.ID] {
				continue
			}
			scratch = binary.AppendUvarint(scratch, qc.Mask)
			scratch = binary.AppendUvarint(scratch, math.Float64bits(r.EffCost[qc.ID]))
		}
		fps[i] = queryFP{fp: string(scratch), qi: qi, pos: i}
	}
	sort.Slice(fps, func(i, j int) bool {
		if fps[i].fp != fps[j].fp {
			return fps[i].fp > fps[j].fp
		}
		if c := slices.Compare(inst.Query(fps[i].qi), inst.Query(fps[j].qi)); c != 0 {
			return c < 0
		}
		return fps[i].pos < fps[j].pos
	})
	var (
		buf     []byte
		globals []core.ClassifierID
		local   = make(map[core.ClassifierID]uint64)
	)
	buf = append(buf, domain...)
	buf = append(buf, 0)
	buf = binary.AppendUvarint(buf, uint64(len(fps)))
	for _, f := range fps {
		buf = binary.AppendUvarint(buf, uint64(len(f.fp)))
		buf = append(buf, f.fp...)
		for _, qc := range inst.QueryClassifiers(f.qi) {
			if r.Removed[qc.ID] {
				continue
			}
			li, ok := local[qc.ID]
			if !ok {
				li = uint64(len(globals))
				local[qc.ID] = li
				globals = append(globals, qc.ID)
			}
			buf = binary.AppendUvarint(buf, li)
		}
	}
	return Key{buf: buf, globals: globals}
}

// componentKey builds the key of component comp of r through the kernel,
// and copies it so that it outlives the component's Release.
func componentKey(c *Cache, domain string, r *prep.Result, comp []int) Key {
	cc, k := Canonical(c, domain, r, comp)
	k = Key{buf: slices.Clone(k.buf), globals: slices.Clone(k.globals)}
	cc.Release()
	return k
}

// checkKeys keys every component of r through the kernel and through the
// reference, and fails unless the key bytes and classifier lists agree. It
// returns the number of components checked.
func checkKeys(t testing.TB, c *Cache, domain string, r *prep.Result) int {
	t.Helper()
	for ci, comp := range r.Components {
		got, want := componentKey(c, domain, r, comp), refComponentKey(domain, r, comp)
		if !bytes.Equal(got.buf, want.buf) {
			t.Fatalf("component %d (%d queries): key bytes differ from the reference", ci, len(comp))
		}
		if !slices.Equal(got.globals, want.globals) {
			t.Fatalf("component %d: globals %v, reference %v", ci, got.globals, want.globals)
		}
	}
	return len(r.Components)
}

// setCover builds a coverable Set Cover instance with every element in at
// least two sets (Theorem 5.1's setting).
func setCover(rng *rand.Rand, nElems, nSets int) *hardness.SetCover {
	sc := &hardness.SetCover{NumElements: nElems, Sets: make([][]int, nSets)}
	for e := 0; e < nElems; e++ {
		for _, si := range rng.Perm(nSets)[:2+rng.Intn(3)] {
			sc.Sets[si] = append(sc.Sets[si], e)
		}
	}
	return sc
}

// TestComponentKeyDifferential checks the key kernel against the reference
// on every residual component of the three workload families and both
// hardness reductions, under full and minimal preprocessing.
func TestComponentKeyDifferential(t *testing.T) {
	loads := map[string]func() (*core.Instance, error){
		"synthetic": workload.Synthetic(2000, 1).Instance,
		"bestbuy":   workload.BestBuy(1).Instance,
		"private":   workload.Private(1).Instance,
		"hardness/thm5.1": func() (*core.Instance, error) {
			r, err := hardness.BuildTheorem51(setCover(rand.New(rand.NewSource(5)), 40, 12))
			if err != nil {
				return nil, err
			}
			return r.Inst, nil
		},
		"hardness/thm5.2": func() (*core.Instance, error) {
			r, err := hardness.BuildTheorem52(setCover(rand.New(rand.NewSource(6)), 14, 20))
			if err != nil {
				return nil, err
			}
			return r.Inst, nil
		},
	}
	c := New(Config{})
	for name, build := range loads {
		t.Run(name, func(t *testing.T) {
			inst, err := build()
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, level := range []prep.Level{prep.Full, prep.Minimal} {
				r, err := prep.Run(inst, level)
				if err != nil {
					t.Fatal(err)
				}
				n += checkKeys(t, c, "general/auto", r)
			}
			t.Logf("%d components", n)
		})
	}
}

// fuzzResult decodes data into a small instance over at most 8 properties
// and preprocesses it. Layout: a property count, a query count, a flags
// byte, one byte per query (its property mask), and the remaining bytes as
// a cost table that each subset indexes by a hash of its property mask. A
// cost byte prices its subset +Inf (0–15), 0 (16–31), or a small integer or
// a third of one. Flag bit 0 keeps duplicate queries, bit 1 preprocesses
// minimally. It returns nil when data is too short or the instance is
// infeasible.
func fuzzResult(data []byte) *prep.Result {
	if len(data) < 3 {
		return nil
	}
	nProps := 1 + int(data[0])%8
	nQueries := 1 + int(data[1])%16
	flags := data[2]
	data = data[3:]
	if len(data) < nQueries {
		return nil
	}
	u := core.NewUniverse()
	for i := 0; i < nProps; i++ {
		u.Intern(string(rune('a' + i)))
	}
	full := uint8(1)<<uint(nProps) - 1
	qs := make([]core.PropSet, 0, nQueries)
	for i := 0; i < nQueries; i++ {
		mask := data[i] & full
		if mask == 0 {
			mask = 1 << (uint(i) % uint(nProps))
		}
		var q core.PropSet
		for m := mask; m != 0; m &= m - 1 {
			q = append(q, core.PropID(bits.TrailingZeros8(m)))
		}
		qs = append(qs, q)
	}
	table := data[nQueries:]
	cm := core.CostFunc(func(s core.PropSet) float64 {
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
	inst, err := core.NewInstance(u, qs, cm, core.Options{KeepDuplicateQueries: flags&1 != 0})
	if err != nil {
		return nil
	}
	level := prep.Full
	if flags&2 != 0 {
		level = prep.Minimal
	}
	r, err := prep.Run(inst, level)
	if err != nil {
		return nil
	}
	return r
}

// FuzzComponentKey checks the key kernel against the reference on random
// small instances, with classifiers removed, selected at zero cost and
// priced in thirds. Its seeds are 2,000 random byte strings.
func FuzzComponentKey(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		seed := make([]byte, 3+rng.Intn(16+96))
		rng.Read(seed)
		f.Add(seed)
	}
	c := New(Config{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if r := fuzzResult(data); r != nil {
			checkKeys(t, c, "d", r)
		}
	})
}

// TestComponentKeyConcurrent runs Canonical, Lookup and Store from
// several goroutines on one cache, over instances of different sizes, so
// the pooled scratch is shared, grown and reused; run it with -race. Every
// key must match the reference, and every hit must translate to the picks
// stored for it.
func TestComponentKeyConcurrent(t *testing.T) {
	var results []*prep.Result
	for _, ds := range []*workload.Dataset{workload.Synthetic(300, 3), workload.BestBuy(2), workload.Private(4)} {
		inst, err := ds.SubsetInstance(200, 1)
		if err != nil {
			t.Fatal(err)
		}
		r, err := prep.Run(inst, prep.Full)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	c := New(Config{MaxEntries: 64})
	const workers, rounds = 4, 3
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for i := range results {
					r := results[(i+w)%len(results)]
					for ci, comp := range r.Components {
						// The key views the component's pooled scratch
						// until Release, as in a solve.
						cc, k := Canonical(c, "d", r, comp)
						want := refComponentKey("d", r, comp)
						if !bytes.Equal(k.buf, want.buf) || !slices.Equal(k.globals, want.globals) {
							cc.Release()
							errs <- fmt.Errorf("worker %d: component %d: key differs from the reference", w, ci)
							return
						}
						// Pick every other classifier of the component: a
						// deterministic function of the key, so every
						// worker stores the same picks under it.
						var picks []core.ClassifierID
						for j := 0; j < len(k.globals); j += 2 {
							picks = append(picks, k.globals[j])
						}
						if got, ok := c.Lookup(k); ok && !slices.Equal(got, picks) {
							cc.Release()
							errs <- fmt.Errorf("worker %d: component %d: hit %v, stored %v", w, ci, got, picks)
							return
						}
						c.Store(k, picks)
						cc.Release()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits == 0 {
		t.Fatalf("no lookup hit: %+v", st)
	}
}
