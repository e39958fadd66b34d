package setcover

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

func benchInstance(nElems, nSets int, seed int64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	return randomInstance(rng, nElems, nSets, 50)
}

// wscInstance draws an instance shaped like the reductions Algorithm 3
// solves: a singleton set for every element, then 1.3 more sets per element
// of two to four nearby elements (one in twenty of four), all at small
// integer costs, so that most priorities tie.
func wscInstance(nElems int, seed int64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	in := New(nElems)
	for e := 0; e < nElems; e++ {
		in.AddSet([]int32{int32(e)}, float64(1+rng.Intn(20)))
	}
	for s := 0; s < 13*nElems/10; s++ {
		k := 2 + rng.Intn(2)
		if rng.Intn(20) == 0 {
			k = 4
		}
		base := rng.Intn(nElems - 8)
		elems := make([]int32, k)
		for i := range elems {
			elems[i] = int32(base + rng.Intn(8))
		}
		in.AddSet(elems, float64(1+rng.Intn(40)))
	}
	return in
}

// BenchmarkGreedy measures the lazy greedy on dense random instances and on
// WSC-shaped ones (wscInstance). A case's time follows its pop count, which
// it reports.
func BenchmarkGreedy(b *testing.B) {
	for _, tc := range []struct {
		name string
		in   *Instance
	}{
		{"n=1000", benchInstance(1000, 1000, 1)},
		{"n=10000", benchInstance(10000, 10000, 1)},
		{"wsc/n=1000", wscInstance(1000, 1)},
		{"wsc/n=10000", wscInstance(10000, 1)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			_, _, pops, err := tc.in.greedyCtx(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := tc.in.Greedy(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pops), "pops")
		})
	}
}

// BenchmarkPrimalDual measures the f-approximation.
func BenchmarkPrimalDual(b *testing.B) {
	for _, size := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			in := benchInstance(size, size, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := in.PrimalDual(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLPRounding measures the simplex-backed engine at its intended
// (small) scale.
func BenchmarkLPRounding(b *testing.B) {
	in := benchInstance(60, 80, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := in.LPRounding(); err != nil {
			b.Fatal(err)
		}
	}
}
