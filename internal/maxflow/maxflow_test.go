package maxflow

import (
	"math"
	"math/rand"
	"testing"
)

// bruteMinCut enumerates all s-t cuts of the graph described by edges
// (u,v,cap) and returns the minimum cut value. Usable for n ≤ ~16.
func bruteMinCut(n, s, t int, edges [][3]float64) float64 {
	best := math.Inf(1)
	for mask := 0; mask < 1<<uint(n); mask++ {
		if mask&(1<<uint(s)) == 0 || mask&(1<<uint(t)) != 0 {
			continue
		}
		var cut float64
		for _, e := range edges {
			u, v := int(e[0]), int(e[1])
			if mask&(1<<uint(u)) != 0 && mask&(1<<uint(v)) == 0 {
				cut += e[2]
			}
		}
		if cut < best {
			best = cut
		}
	}
	return best
}

func buildGraph(n int, edges [][3]float64) *Graph {
	g := NewGraph(n)
	for _, e := range edges {
		g.AddEdge(int(e[0]), int(e[1]), e[2])
	}
	return g
}

func TestDinicClassicExample(t *testing.T) {
	// CLRS Figure 26.1-style network, max flow 23.
	edges := [][3]float64{
		{0, 1, 16}, {0, 2, 13}, {1, 2, 10}, {2, 1, 4},
		{1, 3, 12}, {3, 2, 9}, {2, 4, 14}, {4, 3, 7},
		{3, 5, 20}, {4, 5, 4},
	}
	g := buildGraph(6, edges)
	if got := Dinic(g, 0, 5); got != 23 {
		t.Errorf("Dinic = %v, want 23", got)
	}
}

func TestPushRelabelClassicExample(t *testing.T) {
	edges := [][3]float64{
		{0, 1, 16}, {0, 2, 13}, {1, 2, 10}, {2, 1, 4},
		{1, 3, 12}, {3, 2, 9}, {2, 4, 14}, {4, 3, 7},
		{3, 5, 20}, {4, 5, 4},
	}
	g := buildGraph(6, edges)
	if got := PushRelabel(g, 0, 5); got != 23 {
		t.Errorf("PushRelabel = %v, want 23", got)
	}
}

func TestTrivialCases(t *testing.T) {
	g := NewGraph(2)
	if Dinic(g, 0, 1) != 0 {
		t.Error("no edges → zero flow")
	}
	if Dinic(g, 0, 0) != 0 {
		t.Error("s == t → zero flow")
	}
	g2 := NewGraph(2)
	g2.AddEdge(0, 1, 5)
	if got := Dinic(g2, 0, 1); got != 5 {
		t.Errorf("single edge flow = %v", got)
	}
	g3 := NewGraph(2)
	g3.AddEdge(0, 1, 5)
	if got := PushRelabel(g3, 0, 1); got != 5 {
		t.Errorf("single edge push-relabel flow = %v", got)
	}
	g4 := NewGraph(3)
	g4.AddEdge(0, 1, 5)
	g4.AddEdge(1, 2, 3)
	if got := Dinic(g4, 0, 2); got != 3 {
		t.Errorf("chain bottleneck flow = %v", got)
	}
}

func TestDinicAgainstBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(7)
		m := rng.Intn(3 * n)
		edges := make([][3]float64, 0, m)
		for i := 0; i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			edges = append(edges, [3]float64{float64(u), float64(v), float64(1 + rng.Intn(10))})
		}
		s, tt := 0, n-1
		want := bruteMinCut(n, s, tt, edges)
		g := buildGraph(n, edges)
		got := Dinic(g, s, tt)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: Dinic = %v, brute min cut = %v (n=%d edges=%v)", trial, got, want, n, edges)
		}
	}
}

func TestPushRelabelAgreesWithDinicRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(10)
		m := rng.Intn(4 * n)
		edges := make([][3]float64, 0, m)
		for i := 0; i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			edges = append(edges, [3]float64{float64(u), float64(v), float64(1 + rng.Intn(20))})
		}
		gd := buildGraph(n, edges)
		gp := buildGraph(n, edges)
		fd := Dinic(gd, 0, n-1)
		fp := PushRelabel(gp, 0, n-1)
		if math.Abs(fd-fp) > 1e-9 {
			t.Fatalf("trial %d: Dinic=%v PushRelabel=%v (n=%d edges=%v)", trial, fd, fp, n, edges)
		}
	}
}

func TestMinCutExtraction(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(6)
		var edges [][3]float64
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			edges = append(edges, [3]float64{float64(u), float64(v), float64(1 + rng.Intn(9))})
		}
		g := buildGraph(n, edges)
		flow := Dinic(g, 0, n-1)
		side := g.SourceSide(0)
		if !side[0] {
			t.Fatal("source must be on the source side")
		}
		if side[n-1] {
			t.Fatal("sink must not be reachable after max flow")
		}
		cut := g.CutEdges(side)
		var cutVal float64
		for _, e := range cut {
			cutVal += g.Capacity(e)
			if !g.Saturated(e) {
				t.Fatal("cut edges must be saturated")
			}
		}
		if math.Abs(cutVal-flow) > 1e-9 {
			t.Fatalf("trial %d: cut value %v != flow %v", trial, cutVal, flow)
		}
	}
}

func TestInfiniteCapacityEdges(t *testing.T) {
	// s → a (3), a → b (∞), b → t (4): flow is min(3,4) = 3, and the
	// infinite edge is never part of the min cut.
	for name, solve := range map[string]func(*Graph, int, int) float64{"dinic": Dinic, "pushrelabel": PushRelabel} {
		g := NewGraph(4)
		e1 := g.AddEdge(0, 1, 3)
		eInf := g.AddEdge(1, 2, math.Inf(1))
		g.AddEdge(2, 3, 4)
		if got := solve(g, 0, 3); got != 3 {
			t.Errorf("%s: flow = %v, want 3", name, got)
		}
		side := g.SourceSide(0)
		for _, e := range g.CutEdges(side) {
			if e == eInf {
				t.Errorf("%s: infinite edge in min cut", name)
			}
		}
		if !g.Saturated(e1) {
			t.Errorf("%s: bottleneck edge must be saturated", name)
		}
	}
}

func TestFlowConservationAndEdgeFlows(t *testing.T) {
	edges := [][3]float64{
		{0, 1, 10}, {0, 2, 10}, {1, 2, 2}, {1, 3, 4},
		{1, 4, 8}, {2, 4, 9}, {4, 3, 6}, {3, 5, 10}, {4, 5, 10},
	}
	g := buildGraph(6, edges)
	flow := Dinic(g, 0, 5)
	if flow != 19 {
		t.Fatalf("flow = %v, want 19", flow)
	}
	// Conservation: per node (≠ s,t), inflow == outflow.
	in := make([]float64, 6)
	out := make([]float64, 6)
	for i := 0; i < g.NumEdges(); i++ {
		e := EdgeID(2 * i)
		f := g.Flow(e)
		if f < -1e-9 || f > g.Capacity(e)+1e-9 {
			t.Fatalf("edge %d flow %v out of [0,%v]", e, f, g.Capacity(e))
		}
		u, v := int(edges[i][0]), int(edges[i][1])
		out[u] += f
		in[v] += f
	}
	for v := 1; v < 5; v++ {
		if math.Abs(in[v]-out[v]) > 1e-9 {
			t.Errorf("conservation violated at node %d: in %v out %v", v, in[v], out[v])
		}
	}
	if math.Abs(out[0]-in[0]-flow) > 1e-9 {
		t.Errorf("net source outflow %v != flow %v", out[0]-in[0], flow)
	}
}

func TestResetAndClone(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 5)
	first := Dinic(g, 0, 2)
	g.Reset()
	second := Dinic(g, 0, 2)
	if first != second || first != 5 {
		t.Errorf("Reset broken: first=%v second=%v", first, second)
	}

	g.Reset()
	c := g.Clone()
	Dinic(g, 0, 2)
	// Clone must be untouched by solving the original.
	if got := Dinic(c, 0, 2); got != 5 {
		t.Errorf("Clone shares state with original: flow=%v", got)
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewGraph(2)
	for _, fn := range []func(){
		func() { g.AddEdge(-1, 0, 1) },
		func() { g.AddEdge(0, 2, 1) },
		func() { g.AddEdge(0, 1, -1) },
		func() { g.AddEdge(0, 1, math.NaN()) },
		func() { NewGraph(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on invalid input")
				}
			}()
			fn()
		}()
	}
}

func TestBipartiteLikeNetwork(t *testing.T) {
	// Shape of the Section 4 reduction: s → L (weights), L–R (∞), R → t
	// (weights). 2 singletons, 2 pair classifiers, queries {X,XY},{Y,XY2}.
	g := NewGraph(6) // 0=s, 1=X, 2=Y, 3=XY, 4=XY2, 5=t
	g.AddEdge(0, 1, 5)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 3, math.Inf(1))
	g.AddEdge(2, 3, math.Inf(1))
	g.AddEdge(1, 4, math.Inf(1))
	g.AddEdge(3, 5, 4)
	g.AddEdge(4, 5, 2)
	want := Dinic(g.Clone(), 0, 5)
	got := PushRelabel(g, 0, 5)
	if math.Abs(want-got) > 1e-9 {
		t.Errorf("engines disagree on bipartite network: %v vs %v", want, got)
	}
}

func TestLargeSparseRandomAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	n := 300
	g1 := NewGraph(n)
	g2 := NewGraph(n)
	for i := 0; i < 4*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		c := float64(1 + rng.Intn(100))
		g1.AddEdge(u, v, c)
		g2.AddEdge(u, v, c)
	}
	f1 := Dinic(g1, 0, n-1)
	f2 := PushRelabel(g2, 0, n-1)
	if math.Abs(f1-f2) > 1e-6 {
		t.Errorf("large graph: Dinic=%v PushRelabel=%v", f1, f2)
	}
}
