package incr

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/solver"
)

// gateSink consumes spans but rendezvouses callers: a Span call blocks
// briefly until a second caller is inside Span concurrently, then the gate
// opens for good. Every component solve ends spans inside the engine's
// per-component solve callback, so the gate firing proves two component
// solves were in flight at once. A single timeout (serial engine) releases
// all waiters so the test fails fast instead of hanging.
type gateSink struct {
	inflight atomic.Int32
	fired    atomic.Bool
	dead     atomic.Bool
	once     sync.Once
	gate     chan struct{}
}

func newGateSink() *gateSink { return &gateSink{gate: make(chan struct{})} }

func (g *gateSink) Span(obs.Event) {
	if !g.fired.Load() && !g.dead.Load() {
		if g.inflight.Add(1) >= 2 {
			g.once.Do(func() {
				g.fired.Store(true)
				close(g.gate)
			})
		}
		select {
		case <-g.gate:
		case <-time.After(250 * time.Millisecond):
			g.dead.Store(true)
		}
		g.inflight.Add(-1)
	}
}

// TestEngineSolvesDirtyComponentsConcurrently is the regression test for the
// engine ignoring Config.Options.Parallelism: one Apply creating several
// disjoint dirty components at Parallelism = -1 must run ≥ 2 component solve
// callbacks concurrently.
func TestEngineSolvesDirtyComponentsConcurrently(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs GOMAXPROCS ≥ 2 for concurrent component solves")
	}
	gs := newGateSink()
	opts := solver.DefaultOptions()
	opts.Parallelism = -1
	e := newTestEngine(t, Config{Options: opts, Tracer: obs.New(gs)})

	res, err := e.Apply(context.Background(), []Delta{
		Add("a1", "a2"), Add("a2", "a3"),
		Add("b1", "b2"), Add("b2", "b3"),
		Add("c1", "c2"), Add("c2", "c3"),
		Add("d1", "d2"), Add("d2", "d3"),
	})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if res.Dirty != 4 {
		t.Fatalf("Dirty = %d, want 4", res.Dirty)
	}
	if !gs.fired.Load() {
		t.Fatalf("no two component solves were ever in flight together at Parallelism=-1")
	}
	if sol, err := e.Solution(); err != nil {
		t.Fatalf("Solution: %v", err)
	} else if len(sol.Classifiers) == 0 {
		t.Fatalf("empty solution after parallel Apply")
	}
}
