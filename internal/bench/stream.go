package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/workload"
)

// streamFeed returns a SolveStream feed generating the configured synthetic
// stream, interning into u. Every arm regenerates the stream with the same
// (n, seed, partitions), so arrival order — and with it the content-addressed
// costs — is identical across arms.
func streamFeed(cfg Config, u *core.Universe) func(add func(core.PropSet) error) error {
	return func(add func(core.PropSet) error) error {
		var ids []core.PropID
		return workload.SyntheticStream(cfg.StreamQueries, cfg.Seed, cfg.StreamPartitions, func(props []string) error {
			ids = ids[:0]
			for _, p := range props {
				ids = append(ids, u.Intern(p))
			}
			return add(core.NewPropSet(ids...))
		})
	}
}

// streamCosts returns the synthetic content-addressed cost model under the
// run's seed.
func streamCosts(cfg Config) (core.CostModel, error) {
	return workload.ParseCostModel(fmt.Sprintf("synthetic:%d", cfg.Seed))
}

// StreamMem is the peak-memory differential: the same synthetic load solved
// once by materializing everything through core.NewInstance and once through
// the streaming builder with a mid-stream seal window, each arm bracketed by
// a heap watermark. The arms must land on the same cost — the experiment
// doubles as the streamed-vs-materialized cost-identity gate, and errors out
// on a mismatch.
func StreamMem(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	cm, err := streamCosts(cfg)
	if err != nil {
		return nil, err
	}

	type arm struct {
		name string
		run  func() (float64, error)
	}
	// Seal window: one full partition stretch. For sequential
	// property-disjoint partitions this is the smallest reopen-proof window —
	// no in-partition silence can reach a whole stretch before the partition
	// ends, and once it ends its properties never reappear. Components retire
	// two stretches after they start, so ~2/partitions of the load is live.
	window := cfg.StreamQueries / int64(cfg.StreamPartitions)
	if window < 1024 {
		window = 1024
	}
	arms := []arm{
		{"newinstance", func() (float64, error) {
			u := core.NewUniverse()
			var queries []core.PropSet
			err := streamFeed(cfg, u)(func(q core.PropSet) error {
				queries = append(queries, q)
				return nil
			})
			if err != nil {
				return 0, err
			}
			inst, err := core.NewInstance(u, queries, cm, core.Options{})
			if err != nil {
				return 0, err
			}
			queries = nil
			sol, err := solver.General(inst, cfg.SolverOptions())
			if err != nil {
				return 0, err
			}
			return sol.Cost, nil
		}},
		{"streaming", func() (float64, error) {
			u := core.NewUniverse()
			res, err := solver.SolveStream(u, cm, streamFeed(cfg, u),
				solver.StreamConfig{SealWindow: window}, cfg.SolverOptions())
			if err != nil {
				return 0, err
			}
			return res.Cost, nil
		}},
	}

	tab := &Table{
		ID:     "stream-mem",
		Title:  fmt.Sprintf("Peak heap, materialized vs streamed solve (synthetic, %d queries, %d partitions)", cfg.StreamQueries, cfg.StreamPartitions),
		XLabel: "build",
	}
	peakS := Series{Name: "peak_heap_bytes"}
	timeS := Series{Name: "seconds"}
	costS := Series{Name: "cost"}
	costs := make([]float64, len(arms))
	for i, a := range arms {
		runtime.GC() // start each arm from a settled heap
		w := obs.StartHeapWatermark(0)
		start := time.Now()
		cost, err := a.run()
		elapsed := time.Since(start)
		peak, _ := w.Stop()
		if err != nil {
			return nil, fmt.Errorf("stream-mem %s: %w", a.name, err)
		}
		costs[i] = cost
		tab.XValues = append(tab.XValues, a.name)
		peakS.Values = append(peakS.Values, float64(peak))
		timeS.Values = append(timeS.Values, elapsed.Seconds())
		costS.Values = append(costS.Values, cost)
	}
	if costs[0] != costs[1] {
		return nil, fmt.Errorf("stream-mem: cost differential failed: newinstance %g vs streaming %g", costs[0], costs[1])
	}
	if peakS.Values[1] > 0 {
		tab.Notes = fmt.Sprintf("costs identical (%g); peak heap reduction %.1f×", costs[0], peakS.Values[0]/peakS.Values[1])
	}
	tab.Series = []Series{peakS, timeS, costS}
	return tab, nil
}
