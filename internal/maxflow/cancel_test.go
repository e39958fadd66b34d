package maxflow

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// layeredRandomGraph builds a deep layered network so every engine performs
// multiple phases/discharge rounds before terminating.
func layeredRandomGraph(layers, width int, seed int64) (*Graph, int, int) {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + layers*width
	g := NewGraph(n)
	s, t := 0, n-1
	node := func(l, i int) int { return 1 + l*width + i }
	for i := 0; i < width; i++ {
		g.AddEdge(s, node(0, i), float64(1+rng.Intn(8)))
		g.AddEdge(node(layers-1, i), t, float64(1+rng.Intn(8)))
	}
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			for j := 0; j < width; j++ {
				if rng.Intn(2) == 0 {
					g.AddEdge(node(l, i), node(l+1, j), float64(1+rng.Intn(8)))
				}
			}
		}
	}
	return g, s, t
}

// engines lists every max-flow engine's Ctx entry point uniformly.
var engines = []struct {
	name string
	run  func(ctx context.Context, g *Graph, s, t int, st *Stats) (float64, error)
}{
	{"dinic", DinicCtx},
	{"push-relabel", PushRelabelCtx},
}

func TestEnginesReturnErrOnCancelledContext(t *testing.T) {
	for _, e := range engines {
		g, s, tk := layeredRandomGraph(6, 6, 7)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := e.run(ctx, g, s, tk, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", e.name, err)
		}
	}
}

func TestEnginesHonorDeadline(t *testing.T) {
	for _, e := range engines {
		g, s, tk := layeredRandomGraph(6, 6, 11)
		ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
		time.Sleep(time.Millisecond) // let the deadline definitely pass
		_, err := e.run(ctx, g, s, tk, nil)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want context.DeadlineExceeded", e.name, err)
		}
	}
}

func TestEnginesMatchWithBackgroundCtxAndStats(t *testing.T) {
	g0, s, tk := layeredRandomGraph(5, 5, 3)
	want := Dinic(g0.Clone(), s, tk)
	for _, e := range engines {
		var st Stats
		got, err := e.run(context.Background(), g0.Clone(), s, tk, &st)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if got != want {
			t.Errorf("%s: flow %v, want %v", e.name, got, want)
		}
		if st == (Stats{}) {
			t.Errorf("%s: stats not populated", e.name)
		}
	}
}
