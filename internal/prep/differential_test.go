package prep

import (
	"context"
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/hardness"
	"repro/internal/workload"
)

// checkAgainstRef runs Algorithm 1 through the flat Step 2 and Step 3
// kernels and through the reference, and fails unless the whole Result,
// components and their order included, and every Step 3 replacement cost
// agree bit for bit. It returns the kernel's Result, nil
// when both runs rejected the instance.
func checkAgainstRef(t testing.TB, inst *core.Instance, ambientLen int) *Result {
	t.Helper()
	if ambientLen <= 0 {
		ambientLen = inst.MaxQueryLen()
	}
	ctx := context.Background()
	want, repl, wantErr := refRun(ctx, inst, Full, ambientLen)
	st, gotErr := run(ctx, inst, Full, ambientLen)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("error mismatch: kernel %v, reference %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	got := st.r
	if !reflect.DeepEqual(got.Selected, want.Selected) {
		t.Fatalf("Selected differ:\nkernel    %v\nreference %v", got.Selected, want.Selected)
	}
	for name, pair := range map[string][2][]bool{
		"SelectedSet":  {got.SelectedSet, want.SelectedSet},
		"Removed":      {got.Removed, want.Removed},
		"CoveredQuery": {got.CoveredQuery, want.CoveredQuery},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Fatalf("%s differ", name)
		}
	}
	for id := range want.EffCost {
		if math.Float64bits(got.EffCost[id]) != math.Float64bits(want.EffCost[id]) {
			t.Fatalf("EffCost[%d] = %v, reference %v", id, got.EffCost[id], want.EffCost[id])
		}
	}
	if !reflect.DeepEqual(got.CoveredMask, want.CoveredMask) {
		t.Fatal("CoveredMask differ")
	}
	if !reflect.DeepEqual(got.Components, want.Components) {
		t.Fatalf("Components differ:\nkernel    %v\nreference %v", got.Components, want.Components)
	}
	if got.Stats != want.Stats {
		t.Fatalf("Stats differ:\nkernel    %+v\nreference %+v", got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.relCount, want.relCount) {
		t.Fatal("relevance counts differ")
	}
	replaced := 0
	for id, c := range repl {
		if math.IsNaN(c) {
			continue
		}
		replaced++
		if math.Float64bits(st.val[id]) != math.Float64bits(c) {
			t.Fatalf("replacement cost of classifier %d (%v) = %v, reference %v",
				id, inst.Classifier(core.ClassifierID(id)), st.val[id], c)
		}
	}
	if replaced != want.Stats.Step3Removed {
		t.Fatalf("%d replacement costs recorded, Step 3 removed %d", replaced, want.Stats.Step3Removed)
	}
	return got
}

// streamInstance materializes n queries of an 8-partition synthetic stream
// under the stream's synthetic cost model, as mc3solve -stream sees them.
func streamInstance(t testing.TB, n int64, seed int64) *core.Instance {
	t.Helper()
	u := core.NewUniverse()
	var qs []core.PropSet
	if err := workload.SyntheticStream(n, seed, 8, func(props []string) error {
		qs = append(qs, u.Set(props...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	cm, err := workload.ParseCostModel("synthetic:1")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.NewInstance(u, qs, cm, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return inst
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

func TestStep3Differential(t *testing.T) {
	datasets := map[string]func() (*core.Instance, error){
		"synthetic/seed1": workload.Synthetic(10000, 1).Instance,
		"synthetic/seed2": workload.Synthetic(10000, 2).Instance,
		"synthetic-short": workload.SyntheticShort(5000, 1).Instance,
		"bestbuy":         workload.BestBuy(1).Instance,
		"private/seed1":   workload.Private(1).Instance,
		"private/seed7":   workload.Private(7).Instance,
		"stream/8-part":   func() (*core.Instance, error) { return streamInstance(t, 20000, 3), nil },
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
	for name, build := range datasets {
		t.Run(name, func(t *testing.T) {
			inst, err := build()
			if err != nil {
				t.Fatal(err)
			}
			r := checkAgainstRef(t, inst, 0)
			if r == nil {
				t.Fatal("both runs rejected the instance")
			}
			t.Logf("%d classifiers: %+v", inst.NumClassifiers(), r.Stats)
		})
	}
}

// fuzzInstance decodes data into an instance over at most 10 properties.
// Layout: a property count, a query count, an options byte, two bytes per
// query (its property mask), and the remaining bytes as a cost table that
// each subset indexes by a hash of its property mask. A cost byte prices
// its subset +Inf (0–15), 0 (16–31), a third of a small integer (32–63), or
// a small integer. It returns nil when data is too short.
func fuzzInstance(data []byte) (*core.Instance, int) {
	if len(data) < 3 {
		return nil, 0
	}
	nProps := 1 + int(data[0])%10
	nQueries := 1 + int(data[1])%24
	flags := data[2]
	data = data[3:]
	if len(data) < 2*nQueries {
		return nil, 0
	}
	u := core.NewUniverse()
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}[:nProps]
	for _, n := range names {
		u.Intern(n)
	}
	full := uint16(1)<<uint(nProps) - 1
	var qs []core.PropSet
	for i := 0; i < nQueries; i++ {
		mask := binary.LittleEndian.Uint16(data[2*i:]) & full
		if mask == 0 {
			mask = 1 << (uint(i) % uint(nProps))
		}
		var q core.PropSet
		for m := mask; m != 0; m &= m - 1 {
			q = append(q, core.PropID(bits.TrailingZeros16(m)))
		}
		qs = append(qs, q)
	}
	table := data[2*nQueries:]
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
		case b < 64:
			return float64(b%16) / 3
		default:
			return float64(b % 16)
		}
	})
	opts := core.Options{KeepDuplicateQueries: flags&1 != 0}
	if flags&2 != 0 {
		opts.MaxClassifierLen = 2 + int(flags>>4)%3
	}
	inst, err := core.NewInstance(u, qs, cm, opts)
	if err != nil {
		return nil, 0
	}
	ambient := 0
	if flags&4 != 0 {
		ambient = 3 // a k = 2 component carved out of a longer load skips Step 4
	}
	return inst, ambient
}

// FuzzPrep checks the flat Step 2 and Step 3 kernels against the
// reference on random small instances, including subsets priced +Inf and
// subsets priced 0. Its seeds are 5,000 random byte strings, so every test
// run checks the kernels on thousands of instances.
func FuzzPrep(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		seed := make([]byte, 3+rng.Intn(2*24+128))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Add([]byte{9, 0, 0, 0xff, 0x03})
	f.Add([]byte{3, 2, 1, 0x07, 0, 0x03, 0, 16, 40, 70, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		inst, ambient := fuzzInstance(data)
		if inst == nil {
			return
		}
		checkAgainstRef(t, inst, ambient)
	})
}
