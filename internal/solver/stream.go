package solver

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/core"
)

// StreamConfig configures SolveStream's ingestion side. The solver side
// (preprocessing, WSC engines, deadlines, stats, tracing) comes from the
// Options passed alongside.
type StreamConfig struct {
	// SealWindow, when positive, seals a live component once it has gone
	// this many admitted queries without being touched, handing it off for
	// solving while ingestion continues — the bounded-memory mode for
	// streams with property locality. Zero seals only when the stream ends
	// (peak memory then holds the distinct shapes of the whole load, still
	// free of NewInstance's C_Q cross-indexes).
	SealWindow int64
	// SealEvery is how often (in admitted queries) the idle sweep runs.
	// Zero defaults to max(SealWindow/4, 1024).
	SealEvery int64
	// AmbientQueryLen declares the whole load's maximal query length, which
	// gates preprocessing's k = 2 Step 4 exactly as a whole-load solve
	// would. Required for mid-stream sealing (the true maximum is unknown
	// until the stream ends); zero then assumes a long load
	// (core.MaxEnumQueryLen), which only differs for loads whose true
	// maximum is ≤ 2. With SealWindow == 0 the exact maximum is derived at
	// Finish and this field is ignored.
	AmbientQueryLen int
	// AllowReopen forwards to core.StreamOptions.AllowReopen: accept
	// queries whose properties reappear after their component was sealed,
	// trading the cost-identity guarantee for a feasible upper-bound cover.
	AllowReopen bool
	// Parallelism bounds the sealed-component solver workers running
	// alongside ingestion. 0 or 1 solves in one background worker; a
	// negative value uses GOMAXPROCS.
	Parallelism int
	// Progress, when non-nil, is called every ProgressEvery admitted
	// queries (default 1,000,000) with a stats snapshot — the hook CLI
	// progress lines hang off.
	Progress func(core.StreamStats)
	// ProgressEvery is the Progress callback period in admitted queries.
	ProgressEvery int64
}

// StreamResult is the outcome of a streamed solve. There is no whole-load
// Instance, so classifiers are reported as property sets, not IDs.
type StreamResult struct {
	// Cost is the total construction cost of the selected classifiers.
	Cost float64
	// Classifiers holds the selected classifiers of every component, in
	// seal order (deduplicated across components; property-disjoint
	// components cannot overlap, so deduplication only matters under
	// AllowReopen).
	Classifiers []core.PropSet
	// Queries counts admitted queries, duplicates included; Distinct is
	// the count after duplicate-shape folding.
	Queries  int64
	Distinct int64
	// Components is the number of sealed components solved.
	Components int
	// PeakLiveQueries is the builder's high watermark of distinct queries
	// held at once — the streamed solve's memory story.
	PeakLiveQueries int
	// MaxQueryLen is the maximal query length observed.
	MaxQueryLen int
}

// SolveStream solves a query load fed one query at a time, without ever
// materializing the whole load: feed pumps queries into the builder through
// the add callback it receives (return an error to abort; ParseQueryLogFunc
// and the workload stream generators have exactly this shape). Components
// seal per cfg and are solved concurrently with ingestion through the
// General path, each as a standalone instance presented in arrival order
// with the ambient query length — the construction internal/incr proved
// cost-identical to a whole-load General solve (see docs/STREAMING.md for
// the argument and its AmbientQueryLen caveat).
//
// The cost model must price classifiers by content (it is consulted
// per-component); opts.Validate verifies each component's cover against its
// instance. The result is deterministic for a fixed stream and
// configuration.
func SolveStream(u *core.Universe, cm core.CostModel, feed func(add func(core.PropSet) error) error, cfg StreamConfig, opts Options) (*StreamResult, error) {
	if u == nil {
		return nil, fmt.Errorf("solver: nil universe")
	}
	if cm == nil {
		return nil, fmt.Errorf("solver: nil cost model")
	}
	if feed == nil {
		return nil, fmt.Errorf("solver: nil feed")
	}
	ctx, cancelTimeout, opts := opts.solveContext()
	defer cancelTimeout()

	b, err := core.NewStreamingBuilder(u, core.StreamOptions{AllowReopen: cfg.AllowReopen})
	if err != nil {
		return nil, err
	}

	ambient := cfg.AmbientQueryLen
	if ambient <= 0 && cfg.SealWindow > 0 {
		// Mid-stream seals cannot know the final maximum; assume a long
		// load. Identical prep behavior unless the true maximum is ≤ 2.
		ambient = core.MaxEnumQueryLen
	}

	pool := newSealPool(ctx, u, cm, ambient, opts, cfg.Parallelism)

	sealEvery := cfg.SealEvery
	if sealEvery <= 0 {
		sealEvery = cfg.SealWindow / 4
		if sealEvery < 1024 {
			sealEvery = 1024
		}
	}
	progressEvery := cfg.ProgressEvery
	if progressEvery <= 0 {
		progressEvery = 1_000_000
	}

	var added int64
	add := func(q core.PropSet) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := pool.err(); err != nil {
			return err
		}
		if err := b.Add(q); err != nil {
			return err
		}
		added++
		if cfg.SealWindow > 0 && added%sealEvery == 0 {
			for _, comp := range b.SealIdle(cfg.SealWindow) {
				pool.submit(comp)
			}
		}
		if cfg.Progress != nil && added%progressEvery == 0 {
			cfg.Progress(b.Stats())
		}
		return nil
	}
	if err := feed(add); err != nil {
		pool.abort(err)
		pool.wait()
		return nil, err
	}
	if added == 0 {
		pool.abort(nil)
		pool.wait()
		return nil, fmt.Errorf("solver: stream contains no queries")
	}

	final := b.Finish()
	if ambient <= 0 {
		// Finish-only mode: the exact maximum is now known, giving full
		// parity with a whole-load solve even for k ≤ 2 streams.
		ambient = b.MaxQueryLen()
		pool.setAmbient(ambient)
	}
	for _, comp := range final {
		pool.submit(comp)
	}
	results, err := pool.finish()
	if err != nil {
		return nil, err
	}

	st := b.Stats()
	res := &StreamResult{
		Queries:         st.Added,
		Distinct:        st.Added - st.Folded,
		Components:      st.SealedComponents,
		PeakLiveQueries: st.PeakLiveQueries,
		MaxQueryLen:     st.MaxQueryLen,
	}
	seen := make(map[string]struct{})
	var keyBuf []byte
	for _, cr := range results {
		for i, cls := range cr.classifiers {
			keyBuf = cls.AppendKey(keyBuf[:0])
			if _, ok := seen[string(keyBuf)]; ok {
				continue // only reachable under AllowReopen
			}
			seen[string(keyBuf)] = struct{}{}
			res.Classifiers = append(res.Classifiers, cls)
			res.Cost += cr.costs[i]
		}
	}
	return res, nil
}

// sealResult is one solved sealed component: its selected classifiers as
// property sets with their individual costs, tagged by seal index so the
// global assembly is deterministic regardless of completion order.
type sealResult struct {
	index       int
	classifiers []core.PropSet
	costs       []float64
}

// sealPool runs sealed-component solves on background workers so solving
// overlaps ingestion. The bounded job channel provides backpressure: if
// solving falls behind, ingestion blocks instead of queueing unboundedly.
type sealPool struct {
	u    *core.Universe
	cm   core.CostModel
	opts Options
	ctx  context.Context

	mu      sync.Mutex
	ambient int
	results []sealResult
	firstEr error

	jobs chan *core.SealedComponent
	wg   sync.WaitGroup
}

func newSealPool(ctx context.Context, u *core.Universe, cm core.CostModel, ambient int, opts Options, parallelism int) *sealPool {
	n := parallelism
	if n < 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	p := &sealPool{
		u: u, cm: cm, opts: opts, ctx: ctx,
		ambient: ambient,
		jobs:    make(chan *core.SealedComponent, 2*n),
	}
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *sealPool) worker() {
	defer p.wg.Done()
	for comp := range p.jobs {
		if p.err() != nil || p.ctx.Err() != nil {
			continue // drain
		}
		cls, costs, err := p.solveOne(comp)
		p.mu.Lock()
		if err != nil {
			if p.firstEr == nil {
				p.firstEr = err
			}
		} else {
			p.results = append(p.results, sealResult{index: comp.Index, classifiers: cls, costs: costs})
		}
		p.mu.Unlock()
	}
}

// solveOne mirrors internal/incr's per-component solve: the component's
// queries in arrival order become a standalone instance over the shared
// universe, solved by General with the ambient query length — the recipe
// that makes the per-component cover bit-identical to the whole-load solve's
// share for that component.
func (p *sealPool) solveOne(comp *core.SealedComponent) ([]core.PropSet, []float64, error) {
	inst, err := core.NewInstance(p.u, comp.Queries, p.cm, core.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("solver: sealed component %d: %w", comp.Index, err)
	}
	opts := p.opts
	opts.Context = p.ctx
	p.mu.Lock()
	opts.AmbientQueryLen = p.ambient
	p.mu.Unlock()
	sol, err := General(inst, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("solver: sealed component %d: %w", comp.Index, err)
	}
	cls := make([]core.PropSet, len(sol.Selected))
	costs := make([]float64, len(sol.Selected))
	for i, id := range sol.Selected {
		cls[i] = inst.Classifier(id)
		costs[i] = inst.Cost(id)
	}
	return cls, costs, nil
}

func (p *sealPool) submit(comp *core.SealedComponent) {
	p.jobs <- comp
}

func (p *sealPool) err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.firstEr
}

func (p *sealPool) setAmbient(ambient int) {
	p.mu.Lock()
	p.ambient = ambient
	p.mu.Unlock()
}

// abort records err (if any) and stops accepting work.
func (p *sealPool) abort(err error) {
	p.mu.Lock()
	if err != nil && p.firstEr == nil {
		p.firstEr = err
	}
	p.mu.Unlock()
	close(p.jobs)
}

// wait blocks until the workers drained.
func (p *sealPool) wait() { p.wg.Wait() }

// finish closes the pool, waits for every solve, and returns the results in
// seal order.
func (p *sealPool) finish() ([]sealResult, error) {
	close(p.jobs)
	p.wg.Wait()
	if p.firstEr != nil {
		return nil, p.firstEr
	}
	if err := p.ctx.Err(); err != nil {
		return nil, err
	}
	sort.Slice(p.results, func(i, j int) bool { return p.results[i].index < p.results[j].index })
	return p.results, nil
}
