package mc3

// Benchmark harness: one benchmark per paper table/figure (each wraps the
// corresponding experiment runner from internal/bench at a reduced but
// representative scale — run cmd/mc3bench for the full paper-scale suite)
// plus micro-benchmarks of the core pipeline stages.

import (
	"context"
	"fmt"
	"io"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/prep"
	"repro/internal/solver"
	"repro/internal/textio"
	"repro/internal/workload"
)

// benchCfg is the scale used by the `go test -bench` harness.
func benchCfg() bench.Config {
	return bench.Config{
		Seed:           1,
		BBSizes:        []int{250, 1000},
		PShortSizes:    []int{1000, 4000},
		PSizes:         []int{2500, 10000},
		SyntheticSizes: []int{1000, 10000},
		Repeats:        1,
	}
}

func runExperiment(b *testing.B, fn func(bench.Config) (*bench.Table, error)) {
	b.Helper()
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		tab, err := fn(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			tab.Render(io.Discard)
		}
	}
}

// BenchmarkTable1Datasets regenerates Table 1 (dataset summary).
func BenchmarkTable1Datasets(b *testing.B) { runExperiment(b, bench.Table1) }

// BenchmarkFigure3a regenerates Figure 3a (BestBuy, uniform costs: MC3[S] =
// Mixed < Query-Oriented < Property-Oriented).
func BenchmarkFigure3a(b *testing.B) { runExperiment(b, bench.Figure3a) }

// BenchmarkFigure3b regenerates Figure 3b (Private short queries, varying
// costs: MC3[S] optimal, baselines trail).
func BenchmarkFigure3b(b *testing.B) { runExperiment(b, bench.Figure3b) }

// BenchmarkFigure3c regenerates Figure 3c (MC3[S] runtime, with/without
// preprocessing).
func BenchmarkFigure3c(b *testing.B) { runExperiment(b, bench.Figure3c) }

// BenchmarkFigure3d regenerates Figure 3d (Private general queries: MC3[G]
// best overall; Short-First wins the fashion slice).
func BenchmarkFigure3d(b *testing.B) { runExperiment(b, bench.Figure3d) }

// BenchmarkFigure3e regenerates Figure 3e (MC3[G] solution cost with/without
// preprocessing).
func BenchmarkFigure3e(b *testing.B) { runExperiment(b, bench.Figure3e) }

// BenchmarkFigure3f regenerates Figure 3f (MC3[G] runtime with/without
// preprocessing).
func BenchmarkFigure3f(b *testing.B) { runExperiment(b, bench.Figure3f) }

// BenchmarkAblationWSC compares Algorithm 3's set-cover engines.
func BenchmarkAblationWSC(b *testing.B) { runExperiment(b, bench.AblationWSC) }

// BenchmarkAblationEngine compares Dinic and push-relabel inside Algorithm 2.
func BenchmarkAblationEngine(b *testing.B) { runExperiment(b, bench.AblationEngine) }

// BenchmarkAblationPrepSteps reports Algorithm 1's per-step contributions.
func BenchmarkAblationPrepSteps(b *testing.B) { runExperiment(b, bench.AblationPrepSteps) }

// BenchmarkAblationLPPrep measures preprocessing's effect with a real LP in
// the loop.
func BenchmarkAblationLPPrep(b *testing.B) { runExperiment(b, bench.AblationLPPrep) }

// ---- Pipeline micro-benchmarks ----

// BenchmarkInstanceBuild measures classifier-universe enumeration.
func BenchmarkInstanceBuild(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d := workload.Synthetic(n, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Instance(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The 10k-query Private load priced by the explicit cost table its
	// instance file carries — the table mc3solve -in and /solve build from
	// the JSON costs — so every classifier lookup is a table probe.
	b.Run("private", func(b *testing.B) {
		d := workload.Private(1)
		inst, err := d.Instance()
		if err != nil {
			b.Fatal(err)
		}
		f := textio.FromInstance(inst)
		u := NewUniverse()
		queries := make([]PropSet, len(f.Queries))
		for i, q := range f.Queries {
			queries[i] = u.Set(q...)
		}
		cm := f.CostModelFor(u)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := NewInstance(u, queries, cm, InstanceOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAssemble builds the instance of a 5,000-query Private subset,
// priced by the full load's cost table as a session's /load body prices
// it, two ways: NewInstance enumerates and prices every subset, and
// Assemble copies the rows a C_Q store enumerated once, as a session
// rebuilds a dirty component.
func BenchmarkAssemble(b *testing.B) {
	d := workload.Private(1)
	full, err := d.Instance()
	if err != nil {
		b.Fatal(err)
	}
	f := textio.FromInstance(full)
	sub, err := d.SubsetQueries(5000, 2)
	if err != nil {
		b.Fatal(err)
	}
	u := NewUniverse()
	queries := make([]PropSet, len(sub))
	for i, q := range sub {
		queries[i] = u.Set(d.Universe.SetNames(q)...)
	}
	cm := f.CostModelFor(u)
	store, err := core.NewEnumeration(u, cm, InstanceOptions{})
	if err != nil {
		b.Fatal(err)
	}
	handles := make([]int32, len(queries))
	for i, q := range queries {
		if handles[i], err = store.Add(q); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("NewInstance", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewInstance(u, queries, cm, InstanceOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Assemble", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := store.Assemble(handles); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPreprocessing measures Algorithm 1 on synthetic loads.
func BenchmarkPreprocessing(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d := workload.Synthetic(n, 1)
			inst, err := d.Instance()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := prep.Run(inst, prep.Full); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKTwoSolve measures the exact k = 2 solver end to end.
func BenchmarkKTwoSolve(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d := workload.SyntheticShort(n, 1)
			inst, err := d.Instance()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solver.KTwo(inst, solver.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGeneralSolve measures Algorithm 3 end to end.
func BenchmarkGeneralSolve(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d := workload.Synthetic(n, 1)
			inst, err := d.Instance()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solver.General(inst, solver.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Scheduler benchmarks ----
//
// Multi-component loads dispatched serially vs through the component
// dispatcher at GOMAXPROCS workers. Compare within a machine:
//
//	go test -bench 'Sched' -count 5 . | tee bench-new.txt && benchstat bench-old.txt bench-new.txt

// benchMultiCompInstance builds a load of `groups` property-disjoint
// components, each a chain of 6 overlapping length-qlen queries — enough
// independent work per solve for parallel dispatch to matter.
func benchMultiCompInstance(tb testing.TB, groups, qlen int) *Instance {
	tb.Helper()
	u := NewUniverse()
	var queries []PropSet
	for g := 0; g < groups; g++ {
		for q := 0; q < 6; q++ {
			names := make([]string, 0, qlen)
			for l := 0; l < qlen; l++ {
				names = append(names, fmt.Sprintf("g%d_p%d", g, q+l))
			}
			queries = append(queries, u.Set(names...))
		}
	}
	cm := CostFunc(func(s PropSet) float64 { return float64(1 + 2*s.Len()) })
	inst, err := NewInstance(u, queries, cm, InstanceOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return inst
}

// schedParallelisms are the dispatch settings the scheduler benchmarks
// compare: serial and the GOMAXPROCS-wide worker pool.
var schedParallelisms = []struct {
	name string
	par  int
}{{"par=1", 1}, {"par=-1", -1}}

// BenchmarkSchedGeneralSolve measures Algorithm 3 over 32 independent
// components, serial vs parallel dispatch.
func BenchmarkSchedGeneralSolve(b *testing.B) {
	inst := benchMultiCompInstance(b, 32, 3)
	for _, tc := range schedParallelisms {
		b.Run(tc.name, func(b *testing.B) {
			opts := solver.DefaultOptions()
			opts.Parallelism = tc.par
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solver.General(inst, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSchedKTwoSolve measures Algorithm 2 over 32 independent
// components, serial vs parallel dispatch.
func BenchmarkSchedKTwoSolve(b *testing.B) {
	inst := benchMultiCompInstance(b, 32, 2)
	for _, tc := range schedParallelisms {
		b.Run(tc.name, func(b *testing.B) {
			opts := solver.DefaultOptions()
			opts.Parallelism = tc.par
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solver.KTwo(inst, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSchedIncrApply measures the incremental engine re-solving every
// component of a 32-component load per Apply (alternating cost updates,
// uncached so each re-solve is real work), serial vs parallel dispatch.
func BenchmarkSchedIncrApply(b *testing.B) {
	const groups = 32
	for _, tc := range schedParallelisms {
		b.Run(tc.name, func(b *testing.B) {
			opts := solver.DefaultOptions()
			opts.Parallelism = tc.par
			e, err := incr.New(incr.Config{Costs: CostFunc(func(s PropSet) float64 { return float64(1 + 2*s.Len()) }), Options: opts, NoCache: true})
			if err != nil {
				b.Fatal(err)
			}
			var init []incr.Delta
			for g := 0; g < groups; g++ {
				for q := 0; q < 6; q++ {
					init = append(init, incr.Add(fmt.Sprintf("g%d_p%d", g, q), fmt.Sprintf("g%d_p%d", g, q+1)))
				}
			}
			ctx := context.Background()
			if _, err := e.Apply(ctx, init); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Re-price one singleton in every component: the whole load
				// goes dirty and every component re-solves.
				batch := make([]incr.Delta, groups)
				for g := 0; g < groups; g++ {
					batch[g] = incr.UpdateCost(float64(3+i%2), fmt.Sprintf("g%d_p0", g))
				}
				if _, err := e.Apply(ctx, batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLocalGreedy measures the Local-Greedy baseline.
func BenchmarkLocalGreedy(b *testing.B) {
	d := workload.Synthetic(1000, 1)
	inst, err := d.Instance()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.LocalGreedy(inst, solver.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
