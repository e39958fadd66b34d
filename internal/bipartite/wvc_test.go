package bipartite

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// bruteWVC enumerates all covers; returns the min weight (possibly +Inf).
func bruteWVC(wL, wR []float64, edges [][2]int32) float64 {
	nL, nR := len(wL), len(wR)
	best := math.Inf(1)
	for mask := 0; mask < 1<<uint(nL+nR); mask++ {
		ok := true
		for _, e := range edges {
			inL := mask&(1<<uint(e[0])) != 0
			inR := mask&(1<<uint(nL+int(e[1]))) != 0
			if !inL && !inR {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		var wt float64
		for i := 0; i < nL; i++ {
			if mask&(1<<uint(i)) != 0 {
				wt += wL[i]
			}
		}
		for j := 0; j < nR; j++ {
			if mask&(1<<uint(nL+j)) != 0 {
				wt += wR[j]
			}
		}
		if wt < best {
			best = wt
		}
	}
	return best
}

func coverWeight(wL, wR []float64, coverL, coverR []bool) float64 {
	var wt float64
	for i, in := range coverL {
		if in {
			wt += wL[i]
		}
	}
	for j, in := range coverR {
		if in {
			wt += wR[j]
		}
	}
	return wt
}

func isCover(edges [][2]int32, coverL, coverR []bool) bool {
	for _, e := range edges {
		if !coverL[e[0]] && !coverR[e[1]] {
			return false
		}
	}
	return true
}

func TestWVCSimple(t *testing.T) {
	// One edge; cheaper endpoint wins.
	w, err := New([]float64{5}, []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddEdge(0, 0); err != nil {
		t.Fatal(err)
	}
	coverL, coverR, wt, err := w.Solve(Dinic)
	if err != nil {
		t.Fatal(err)
	}
	if wt != 3 || coverL[0] || !coverR[0] {
		t.Errorf("got coverL=%v coverR=%v weight=%v, want right endpoint at 3", coverL, coverR, wt)
	}
}

func TestWVCPaperStyleQueryGadget(t *testing.T) {
	// Query xy: edges (X,XY), (Y,XY). W(X)=5, W(Y)=1, W(XY)=4.
	// Best: choose XY (4) < X+Y (6).
	w, _ := New([]float64{5, 1}, []float64{4})
	_ = w.AddEdge(0, 0)
	_ = w.AddEdge(1, 0)
	_, coverR, wt, err := w.Solve(Dinic)
	if err != nil {
		t.Fatal(err)
	}
	if wt != 4 || !coverR[0] {
		t.Errorf("weight=%v coverR=%v, want XY chosen at 4", wt, coverR)
	}
	// Now make XY expensive: W(XY)=7 → choose X and Y at 6.
	w2, _ := New([]float64{5, 1}, []float64{7})
	_ = w2.AddEdge(0, 0)
	_ = w2.AddEdge(1, 0)
	coverL, coverR2, wt2, err := w2.Solve(Dinic)
	if err != nil {
		t.Fatal(err)
	}
	if wt2 != 6 || !coverL[0] || !coverL[1] || coverR2[0] {
		t.Errorf("weight=%v coverL=%v, want X+Y at 6", wt2, coverL)
	}
}

func TestWVCAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, engine := range []Engine{Dinic, PushRelabel} {
		for trial := 0; trial < 250; trial++ {
			nL := 1 + rng.Intn(5)
			nR := 1 + rng.Intn(5)
			wL := make([]float64, nL)
			wR := make([]float64, nR)
			for i := range wL {
				wL[i] = float64(rng.Intn(10)) // includes zero weights
			}
			for j := range wR {
				wR[j] = float64(rng.Intn(10))
			}
			var edges [][2]int32
			w, _ := New(wL, wR)
			for l := 0; l < nL; l++ {
				for r := 0; r < nR; r++ {
					if rng.Intn(3) == 0 {
						_ = w.AddEdge(l, r)
						edges = append(edges, [2]int32{int32(l), int32(r)})
					}
				}
			}
			want := bruteWVC(wL, wR, edges)
			coverL, coverR, wt, err := w.Solve(engine)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(wt-want) > 1e-9 {
				t.Fatalf("%v trial %d: weight %v, brute %v (wL=%v wR=%v edges=%v)", engine, trial, wt, want, wL, wR, edges)
			}
			if !isCover(edges, coverL, coverR) {
				t.Fatalf("%v trial %d: returned set is not a cover", engine, trial)
			}
			if got := coverWeight(wL, wR, coverL, coverR); math.Abs(got-wt) > 1e-9 {
				t.Fatalf("%v trial %d: reported weight %v != cover weight %v", engine, trial, wt, got)
			}
		}
	}
}

func TestWVCInfiniteWeights(t *testing.T) {
	// X has infinite weight → XY must be chosen.
	w, _ := New([]float64{math.Inf(1), 2}, []float64{10})
	_ = w.AddEdge(0, 0)
	_ = w.AddEdge(1, 0)
	coverL, coverR, wt, err := w.Solve(Dinic)
	if err != nil {
		t.Fatal(err)
	}
	if wt != 10 || coverL[0] || !coverR[0] {
		t.Errorf("weight=%v coverL=%v coverR=%v, want XY forced at 10", wt, coverL, coverR)
	}

	// Both endpoints infinite → infeasible.
	w2, _ := New([]float64{math.Inf(1)}, []float64{math.Inf(1)})
	_ = w2.AddEdge(0, 0)
	if _, _, _, err := w2.Solve(Dinic); !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestWVCEnginesAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 100; trial++ {
		nL := 1 + rng.Intn(20)
		nR := 1 + rng.Intn(20)
		wL := make([]float64, nL)
		wR := make([]float64, nR)
		for i := range wL {
			wL[i] = float64(rng.Intn(50))
		}
		for j := range wR {
			wR[j] = float64(rng.Intn(50))
		}
		wa, _ := New(wL, wR)
		wb, _ := New(wL, wR)
		for l := 0; l < nL; l++ {
			for r := 0; r < nR; r++ {
				if rng.Intn(4) == 0 {
					_ = wa.AddEdge(l, r)
					_ = wb.AddEdge(l, r)
				}
			}
		}
		_, _, wtA, errA := wa.Solve(Dinic)
		_, _, wtB, errB := wb.Solve(PushRelabel)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if math.Abs(wtA-wtB) > 1e-9 {
			t.Fatalf("trial %d: engines disagree %v vs %v", trial, wtA, wtB)
		}
	}
}

func TestWVCValidation(t *testing.T) {
	if _, err := New([]float64{-1}, nil); err == nil {
		t.Error("negative weights must be rejected")
	}
	if _, err := New([]float64{math.NaN()}, nil); err == nil {
		t.Error("NaN weights must be rejected")
	}
	w, _ := New([]float64{1}, []float64{1})
	if err := w.AddEdge(1, 0); err == nil {
		t.Error("out-of-range edge must be rejected")
	}
	if _, _, _, err := w.Solve(Engine(42)); err == nil {
		t.Error("unknown engine must be rejected")
	}
}

func TestWVCNoEdges(t *testing.T) {
	w, _ := New([]float64{3, 4}, []float64{5})
	coverL, coverR, wt, err := w.Solve(Dinic)
	if err != nil {
		t.Fatal(err)
	}
	if wt != 0 {
		t.Errorf("empty graph cover weight = %v", wt)
	}
	if coverL[0] || coverL[1] || coverR[0] {
		t.Error("no positive-weight vertex should be selected on an edgeless graph")
	}
}

func TestWVCAllEnginesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2027))
	engines := []Engine{Dinic, PushRelabel}
	for trial := 0; trial < 60; trial++ {
		nL := 1 + rng.Intn(10)
		nR := 1 + rng.Intn(10)
		wL := make([]float64, nL)
		wR := make([]float64, nR)
		for i := range wL {
			wL[i] = float64(rng.Intn(30))
		}
		for j := range wR {
			wR[j] = float64(rng.Intn(30))
		}
		var weights []float64
		for _, e := range engines {
			w, _ := New(wL, wR)
			for l := 0; l < nL; l++ {
				for r := 0; r < nR; r++ {
					if (l*31+r*17+trial)%4 == 0 {
						_ = w.AddEdge(l, r)
					}
				}
			}
			_, _, wt, err := w.Solve(e)
			if err != nil {
				t.Fatal(err)
			}
			weights = append(weights, wt)
		}
		if math.Abs(weights[0]-weights[1]) > 1e-9 {
			t.Fatalf("trial %d: engines disagree: %v", trial, weights)
		}
	}
}

func TestEngineString(t *testing.T) {
	if Dinic.String() != "dinic" || PushRelabel.String() != "push-relabel" {
		t.Error("engine names wrong")
	}
	if Engine(99).String() == "" {
		t.Error("unknown engine must stringify")
	}
}
