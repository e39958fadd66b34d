package solver

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prep"
)

// adversarialInstance builds a large single-blob instance — length-4 queries
// over a shared property pool, so preprocessing removes little and the
// set-cover reduction is big — sized to take well over a millisecond to
// solve.
func adversarialInstance(t testing.TB, numQueries, numProps int, seed int64) *core.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	u := core.NewUniverse()
	names := make([]string, numProps)
	for i := range names {
		names[i] = fmt.Sprintf("p%03d", i)
	}
	seen := map[string]bool{}
	var queries []core.PropSet
	for len(queries) < numQueries {
		idx := rng.Perm(numProps)[:4]
		q := u.Set(names[idx[0]], names[idx[1]], names[idx[2]], names[idx[3]])
		if seen[q.Key()] {
			continue
		}
		seen[q.Key()] = true
		queries = append(queries, q)
	}
	cm := core.CostFunc(func(s core.PropSet) float64 {
		h := int64(7)
		for _, id := range s {
			h = (h*131 + int64(id)) % 1009
		}
		return 1 + float64(h%97)
	})
	inst, err := core.NewInstance(u, queries, cm, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestSolveDeadlineExceededPromptly is the acceptance check: a 1 ms deadline
// on a large adversarial instance must surface context.DeadlineExceeded
// quickly instead of running the solve to completion. The instance must be
// big enough that the solve cannot legitimately beat the deadline timer on a
// fast machine — at 4000 queries it occasionally did, flaking this test.
func TestSolveDeadlineExceededPromptly(t *testing.T) {
	inst := adversarialInstance(t, 20000, 90, 1)
	var stats SolveStats
	opts := DefaultOptions()
	opts.Timeout = time.Millisecond
	opts.Stats = &stats

	start := time.Now()
	sol, err := General(inst, opts)
	elapsed := time.Since(start)

	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if sol != nil {
		t.Error("cancelled solve returned a solution")
	}
	if elapsed > 250*time.Millisecond {
		t.Errorf("cancellation took %v; checkpoints are too sparse", elapsed)
	}
	if !stats.Cancelled || stats.CancelReason != "deadline" {
		t.Errorf("stats = cancelled=%v reason=%q, want deadline", stats.Cancelled, stats.CancelReason)
	}
}

// TestGeneralCancelledContext: an already-cancelled context aborts the solve
// during preprocessing.
func TestGeneralCancelledContext(t *testing.T) {
	inst := adversarialInstance(t, 1000, 40, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.Context = ctx
	if _, err := General(inst, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExactCancellationMidSearch cancels the context while branch-and-bound
// is deep in its exponential search and expects ctx.Err() promptly. The
// instance keeps ≤ 64 classifiers (pairs and singletons over a small pool)
// but its length-4 queries make the search astronomically large.
func TestExactCancellationMidSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	u := core.NewUniverse()
	names := make([]string, 10)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
	}
	seen := map[string]bool{}
	var queries []core.PropSet
	for len(queries) < 30 {
		idx := rng.Perm(len(names))[:4]
		q := u.Set(names[idx[0]], names[idx[1]], names[idx[2]], names[idx[3]])
		if seen[q.Key()] {
			continue
		}
		seen[q.Key()] = true
		queries = append(queries, q)
	}
	cm := core.CostFunc(func(s core.PropSet) float64 {
		h := int64(3)
		for _, id := range s {
			h = (h*57 + int64(id)) % 101
		}
		return 1 + float64(h%13)
	})
	inst, err := core.NewInstance(u, queries, cm, core.Options{MaxClassifierLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumClassifiers() > ExactLimit {
		t.Fatalf("instance has %d classifiers, exceeds ExactLimit", inst.NumClassifiers())
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(3 * time.Millisecond)
		cancel()
	}()
	opts := DefaultOptions()
	opts.Context = ctx
	start := time.Now()
	_, err = Exact(inst, opts)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v after %v, want context.Canceled", err, elapsed)
	}
	if elapsed > time.Second {
		t.Errorf("cancellation took %v; per-node checkpoints are too sparse", elapsed)
	}
}

// TestConcurrentSolvesShareStats runs several General solves concurrently —
// each with a maximally parallel component pool — against one shared
// SolveStats. Run under -race this exercises the tracker-merge locking and
// ForEachComponent's dispatch.
func TestConcurrentSolvesShareStats(t *testing.T) {
	inst := multiComponentInstance(t, 40)
	var stats SolveStats
	const solves = 6
	var wg sync.WaitGroup
	errs := make([]error, solves)
	for i := 0; i < solves; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := DefaultOptions()
			opts.Parallelism = -1
			opts.Stats = &stats
			_, errs[i] = General(inst, opts)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
	}
	if stats.Solves != solves {
		t.Errorf("stats.Solves = %d, want %d", stats.Solves, solves)
	}
	if stats.Cancelled {
		t.Error("stats reports cancellation on clean solves")
	}
}

// TestSolveStatsPopulated checks every solver fills its share of the stats.
func TestSolveStatsPopulated(t *testing.T) {
	t.Run("general", func(t *testing.T) {
		inst := multiComponentInstance(t, 20)
		var stats SolveStats
		opts := DefaultOptions()
		opts.Stats = &stats
		if _, err := General(inst, opts); err != nil {
			t.Fatal(err)
		}
		if stats.Algorithm != "mc3-general" || stats.Solves != 1 {
			t.Errorf("algorithm=%q solves=%d", stats.Algorithm, stats.Solves)
		}
		if stats.TotalTime <= 0 || stats.PrepTime <= 0 || stats.SolveTime <= 0 {
			t.Errorf("zero phase timings: %+v", &stats)
		}
		if stats.Components == 0 {
			t.Error("no components recorded")
		}
		if len(stats.WSCEngine) == 0 {
			t.Error("no WSC engine choices recorded")
		}
		stats.Reset()
		if stats.Solves != 0 || stats.TotalTime != 0 || stats.WSCEngine != nil {
			t.Errorf("Reset left data: %+v", &stats)
		}
	})
	t.Run("ktwo", func(t *testing.T) {
		u := core.NewUniverse()
		var queries []core.PropSet
		for g := 0; g < 30; g++ {
			a := u.Intern(propName(g, 0))
			b := u.Intern(propName(g, 1))
			c := u.Intern(propName(g, 2))
			queries = append(queries, core.NewPropSet(a, b), core.NewPropSet(b, c))
		}
		cm := core.CostFunc(func(s core.PropSet) float64 {
			h := int64(1)
			for _, id := range s {
				h = (h*37 + int64(id)) % 89
			}
			return float64(2 + h%9)
		})
		inst, err := core.NewInstance(u, queries, cm, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var stats SolveStats
		opts := DefaultOptions()
		opts.Stats = &stats
		if _, err := KTwo(inst, opts); err != nil {
			t.Fatal(err)
		}
		if stats.Algorithm != "mc3-short" {
			t.Errorf("algorithm = %q", stats.Algorithm)
		}
		if stats.MaxFlow.Phases == 0 && stats.Components > 0 {
			t.Errorf("components solved but no max-flow phases recorded: %+v", &stats)
		}
	})
	t.Run("short-first", func(t *testing.T) {
		inst := multiComponentInstance(t, 20)
		var stats SolveStats
		opts := DefaultOptions()
		opts.Stats = &stats
		if _, err := ShortFirst(inst, opts); err != nil {
			t.Fatal(err)
		}
		if stats.Algorithm != "short-first" {
			t.Errorf("algorithm = %q", stats.Algorithm)
		}
		if stats.Solves == 0 {
			t.Error("no phases recorded")
		}
	})
	t.Run("portfolio", func(t *testing.T) {
		inst := multiComponentInstance(t, 20)
		var stats SolveStats
		opts := DefaultOptions()
		opts.Stats = &stats
		if _, err := Portfolio(inst, opts); err != nil {
			t.Fatal(err)
		}
		if stats.Algorithm != "portfolio" {
			t.Errorf("algorithm = %q", stats.Algorithm)
		}
		if stats.Winner == "" {
			t.Error("no portfolio winner recorded")
		}
		if stats.String() == "" {
			t.Error("empty stats report")
		}
	})
}

// TestPortfolioCancelledSkipsCandidates: once the context is dead the
// portfolio skips all candidates and reports the cancellation (via
// errors.Join, matchable with errors.Is).
func TestPortfolioCancelledSkipsCandidates(t *testing.T) {
	inst := paperInstance(t) // tiny: preprocessing finishes under any ctx
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.Prep = prep.Minimal
	opts.Context = ctx
	sol, err := Portfolio(inst, opts)
	if sol != nil {
		t.Error("cancelled portfolio returned a solution")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestTimeoutSharedAcrossNestedSolves: ShortFirst resolves the timeout once,
// so its two phases cannot each restart the budget. With a deadline far too
// small for the adversarial load, the whole call must fail rather than
// letting phase 2 run on a fresh budget.
func TestTimeoutSharedAcrossNestedSolves(t *testing.T) {
	inst := adversarialInstance(t, 3000, 50, 3)
	opts := DefaultOptions()
	opts.Timeout = time.Millisecond
	start := time.Now()
	_, err := ShortFirst(inst, opts)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 250*time.Millisecond {
		t.Errorf("cancellation took %v", elapsed)
	}
}

// expiringCtx is a context whose deadline "fires" exactly when the test says
// so, making deadline-after-first-candidate deterministic.
type expiringCtx struct {
	context.Context
	mu   sync.Mutex
	done chan struct{}
	err  error
}

func newExpiringCtx() *expiringCtx {
	return &expiringCtx{Context: context.Background(), done: make(chan struct{})}
}

func (c *expiringCtx) Done() <-chan struct{} { return c.done }

func (c *expiringCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *expiringCtx) expire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = context.DeadlineExceeded
		close(c.done)
	}
}

// expireAfterFirstCandidate expires ctx the moment the first portfolio
// candidate span completes.
type expireAfterFirstCandidate struct {
	ctx *expiringCtx
	n   atomic.Int64
}

func (s *expireAfterFirstCandidate) Span(ev obs.Event) {
	if ev.Name == SpanCandidate && s.n.Add(1) == 1 {
		s.ctx.expire()
	}
}

// TestPortfolioDeadlineKeepsBestSoFar is the anytime-contract regression: a
// deadline that fires after the first candidate succeeded must not lose that
// solution — the portfolio returns it with a nil error and records the
// truncation in stats.
func TestPortfolioDeadlineKeepsBestSoFar(t *testing.T) {
	inst := adversarialInstance(t, 200, 30, 7)
	ctx := newExpiringCtx()
	sink := &expireAfterFirstCandidate{ctx: ctx}
	var stats SolveStats
	opts := DefaultOptions()
	opts.Context = ctx
	opts.Tracer = obs.New(sink)
	opts.Stats = &stats
	opts.Validate = true

	sol, err := Portfolio(inst, opts)
	if err != nil {
		t.Fatalf("truncated portfolio lost its solution: %v", err)
	}
	if sol == nil {
		t.Fatal("nil solution with nil error")
	}
	if err := inst.Verify(sol); err != nil {
		t.Fatal(err)
	}
	if n := sink.n.Load(); n != 1 {
		t.Errorf("%d candidates ran after the deadline, want 1", n)
	}
	if stats.Winner != "mc3-general" {
		t.Errorf("winner = %q, want mc3-general (the only candidate that ran)", stats.Winner)
	}
	if !stats.Cancelled || stats.CancelReason != "deadline" {
		t.Errorf("stats = cancelled=%v reason=%q, want truncation recorded as deadline",
			stats.Cancelled, stats.CancelReason)
	}
}

// TestPortfolioCancelBeforeAnyCandidate: truncation before the first result
// still fails — the anytime contract only protects completed work.
func TestPortfolioCancelBeforeAnyCandidate(t *testing.T) {
	inst := adversarialInstance(t, 200, 30, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.Context = ctx
	if sol, err := Portfolio(inst, opts); err == nil || sol != nil {
		t.Fatalf("got (%v, %v), want (nil, error) with no completed candidate", sol, err)
	}
}
