package maxflow

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// buildBipartiteBench constructs a WVC-reduction-shaped network: s → L
// (random weights), L–R (∞), R → t (random weights) — the exact workload
// Algorithm 2 feeds these engines.
func buildBipartiteBench(nL, nR, degree int, seed int64) (*Graph, int, int) {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph(nL + nR + 2)
	s, t := 0, nL+nR+1
	for i := 0; i < nL; i++ {
		g.AddEdge(s, 1+i, float64(1+rng.Intn(50)))
	}
	for j := 0; j < nR; j++ {
		g.AddEdge(1+nL+j, t, float64(1+rng.Intn(50)))
	}
	for j := 0; j < nR; j++ {
		for d := 0; d < degree; d++ {
			g.AddEdge(1+rng.Intn(nL), 1+nL+j, math.Inf(1))
		}
	}
	return g, s, t
}

func benchEngine(b *testing.B, solve func(*Graph, int, int) float64) {
	for _, size := range []int{500, 5000} {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			base, s, t := buildBipartiteBench(size/2, size/2, 2, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := base.Clone()
				b.StartTimer()
				solve(g, s, t)
			}
		})
	}
}

// BenchmarkDinicBipartite measures Dinic on the Section 4 network shape.
func BenchmarkDinicBipartite(b *testing.B) { benchEngine(b, Dinic) }

// BenchmarkPushRelabelBipartite measures push-relabel on the same shape.
func BenchmarkPushRelabelBipartite(b *testing.B) { benchEngine(b, PushRelabel) }
