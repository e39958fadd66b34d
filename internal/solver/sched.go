package solver

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// The component dispatcher — the single dispatch primitive behind General,
// KTwo, and internal/incr's dirty-component re-solves, per the paper's
// Section 3 remark that the decomposition "allows us to solve all
// sub-instances in parallel".
//
// Design: the serial path runs components in index order. The parallel path
// sorts the indices largest-first (per the caller's size hint, stable on the
// index) and lets every worker claim the next index from one shared atomic
// cursor, so stragglers start early and a worker held by a large component
// never strands queued work: the others keep claiming.
//
// Contracts:
//
//   - Determinism: results are written into per-index slots by the caller,
//     so the final concatenation is independent of scheduling.
//   - The first failure (fn error, recovered panic, or the context firing)
//     stops dispatch: components not yet claimed are never run. In-flight
//     components finish, and their failures are aggregated too.
//   - Bare context errors pass through for errors.Is; other failures are
//     wrapped, multiple concurrent ones joined via errors.Join.

// ForEachComponent runs fn for every component index, serially or on a pool
// of workers per parallelism (0/1 = serial, < 0 = GOMAXPROCS, else that many
// workers). size, when non-nil, is a per-component work hint used to start
// the largest components first; nil keeps index order.
//
// fn must write results into per-index slots so the caller's concatenation
// is deterministic regardless of scheduling.
//
// Exported for internal/incr, whose dirty-component re-solve loop shares
// this dispatcher with the full solvers.
func ForEachComponent(ctx context.Context, n, parallelism int, size func(i int) int, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := parallelism
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 {
		return runSerial(ctx, n, fn)
	}

	// Largest-first claim order, stable on the index so the schedule itself
	// is deterministic (the results are index-slotted either way).
	d := &dispatch{order: make([]int, n)}
	for i := range d.order {
		d.order[i] = i
	}
	if size != nil {
		sort.SliceStable(d.order, func(a, b int) bool { return size(d.order[a]) > size(d.order[b]) })
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			d.work(ctx, fn)
		}()
	}
	wg.Wait()

	d.emit(ctx, workers, n)
	return d.err()
}

// schedErr is one recorded failure, attributed to a component index.
type schedErr struct {
	index int
	err   error
}

// dispatch is the shared state of one parallel ForEachComponent run.
type dispatch struct {
	order  []int        // component indices in claim order
	cursor atomic.Int64 // next position of order to claim
	quit   atomic.Bool  // set on first failure: no further claims
	ran    atomic.Int64

	mu   sync.Mutex
	errs []schedErr
}

// work claims and runs components until the order is exhausted or a failure
// stops dispatch. A component claimed after the context fired fails without
// running.
func (d *dispatch) work(ctx context.Context, fn func(i int) error) {
	for !d.quit.Load() {
		k := int(d.cursor.Add(1)) - 1
		if k >= len(d.order) {
			return
		}
		i := d.order[k]
		err := ctx.Err()
		if err == nil {
			d.ran.Add(1)
			err = runRecover(i, func() error { return fn(i) })
		}
		if err != nil {
			d.quit.Store(true)
			d.mu.Lock()
			d.errs = append(d.errs, schedErr{index: i, err: err})
			d.mu.Unlock()
		}
	}
}

// err assembles the run's outcome: nil, a bare context error (so callers'
// errors.Is(err, context.Canceled/DeadlineExceeded) keep working), a single
// wrapped failure, or an errors.Join of every concurrent failure in
// component order.
func (d *dispatch) err() error {
	if len(d.errs) == 0 {
		return nil
	}
	sort.SliceStable(d.errs, func(a, b int) bool { return d.errs[a].index < d.errs[b].index })
	allCtx := true
	list := make([]error, 0, len(d.errs))
	for _, se := range d.errs {
		if !isContextErr(se.err) {
			allCtx = false
		}
		list = append(list, se.err)
	}
	if allCtx {
		return list[0]
	}
	if len(list) == 1 {
		return componentErr(list[0])
	}
	return fmt.Errorf("solver: %d components failed: %w", len(list), errors.Join(list...))
}

// emit records the run's worker count on the enclosing span (attr
// sched_workers) and, when the trace carries a metrics registry, the
// mc3_sched_* metrics. Called after the workers have exited, from the
// dispatching goroutine that owns the span.
func (d *dispatch) emit(ctx context.Context, workers, n int) {
	sp := obs.FromContext(ctx)
	if sp == nil {
		return
	}
	sp.SetAttr(obs.Int("sched_workers", workers))
	if m := sp.Tracer().Metrics(); m != nil {
		m.Counter("mc3_sched_runs_total").Inc()
		m.Counter("mc3_sched_components_total").Add(int64(n))
		m.Counter("mc3_sched_tasks_total").Add(d.ran.Load())
		m.Gauge("mc3_sched_workers").Set(float64(workers))
	}
}

// runSerial is the parallelism ≤ 1 path: components in index order,
// stopping at the first failure or when the context fires between
// components.
func runSerial(ctx context.Context, n int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := runRecover(i, func() error { return fn(i) }); err != nil {
			return componentErr(err)
		}
	}
	return nil
}

// runRecover runs f, converting a panic into an error attributed to the
// component.
func runRecover(index int, f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("solver: component %d panicked: %v", index, r)
		}
	}()
	return f()
}

// componentErr wraps a component failure, except for bare context errors,
// which pass through so callers can match them with errors.Is.
func componentErr(err error) error {
	if isContextErr(err) {
		return err
	}
	return fmt.Errorf("solver: component failed: %w", err)
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
