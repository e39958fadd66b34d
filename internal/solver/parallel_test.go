package solver

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

func TestForEachComponentSerialAndParallel(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, -1} {
		var count int64
		err := ForEachComponent(context.Background(), 20, workers, nil, func(i int) error {
			atomic.AddInt64(&count, 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if count != 20 {
			t.Errorf("workers=%d: ran %d of 20", workers, count)
		}
	}
}

func TestForEachComponentPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{0, 1, 2, 4, -1} {
		err := ForEachComponent(context.Background(), 10, workers, nil, func(i int) error {
			if i == 7 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("workers=%d: err = %v, want wrapped sentinel", workers, err)
		}
	}
}

func TestForEachComponentEmpty(t *testing.T) {
	if err := ForEachComponent(context.Background(), 0, 8, nil, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachComponentStopsDispatchAfterError(t *testing.T) {
	sentinel := errors.New("boom")
	var ran int64
	err := ForEachComponent(context.Background(), 1000, 4, nil, func(i int) error {
		atomic.AddInt64(&ran, 1)
		if i == 3 {
			return sentinel
		}
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	if n := atomic.LoadInt64(&ran); n >= 1000 {
		t.Errorf("dispatch did not stop after the error: ran all %d components", n)
	}
}

func TestForEachComponentRecoversPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEachComponent(context.Background(), 10, workers, nil, func(i int) error {
			if i == 2 {
				panic("kaboom")
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("workers=%d: err = %v, want recovered panic", workers, err)
		}
	}
}

func TestForEachComponentCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran int64
		err := ForEachComponent(ctx, 100, workers, nil, func(i int) error {
			atomic.AddInt64(&ran, 1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := atomic.LoadInt64(&ran); n != 0 {
			t.Errorf("workers=%d: ran %d components under a dead context", workers, n)
		}
	}
}

// multiComponentInstance builds an instance with many property-disjoint
// groups so preprocessing yields many components.
func multiComponentInstance(t testing.TB, groups int) *core.Instance {
	t.Helper()
	u := core.NewUniverse()
	var queries []core.PropSet
	rng := rand.New(rand.NewSource(int64(groups)))
	for g := 0; g < groups; g++ {
		a := u.Intern(propName(g, 0))
		b := u.Intern(propName(g, 1))
		c := u.Intern(propName(g, 2))
		queries = append(queries, core.NewPropSet(a, b), core.NewPropSet(b, c))
		if rng.Intn(2) == 0 {
			queries = append(queries, core.NewPropSet(a, b, c))
		}
	}
	cm := core.CostFunc(func(s core.PropSet) float64 {
		h := int64(1)
		for _, id := range s {
			h = (h*31 + int64(id)) % 97
		}
		return float64(3 + h%11)
	})
	inst, err := core.NewInstance(u, queries, cm, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func propName(g, i int) string {
	return string(rune('a'+i)) + "-" + string(rune('0'+g%10)) + string(rune('0'+(g/10)%10)) + string(rune('0'+(g/100)%10))
}

func TestParallelGeneralMatchesSerial(t *testing.T) {
	inst := multiComponentInstance(t, 60)
	serial := DefaultOptions()
	parallel := DefaultOptions()
	parallel.Parallelism = 8
	s1, err := General(inst, serial)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := General(inst, parallel)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s1.Cost-s2.Cost) > 1e-9 || len(s1.Selected) != len(s2.Selected) {
		t.Fatalf("parallel output differs: %v/%d vs %v/%d", s1.Cost, len(s1.Selected), s2.Cost, len(s2.Selected))
	}
	for i := range s1.Selected {
		if s1.Selected[i] != s2.Selected[i] {
			t.Fatal("parallel selection order differs")
		}
	}
}

func TestParallelKTwoMatchesSerial(t *testing.T) {
	u := core.NewUniverse()
	var queries []core.PropSet
	for g := 0; g < 50; g++ {
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
	serial := DefaultOptions()
	parallel := DefaultOptions()
	parallel.Parallelism = -1
	s1, err := KTwo(inst, serial)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := KTwo(inst, parallel)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Cost != s2.Cost {
		t.Fatalf("parallel KTwo differs: %v vs %v", s1.Cost, s2.Cost)
	}
	for i := range s1.Selected {
		if s1.Selected[i] != s2.Selected[i] {
			t.Fatal("parallel KTwo selection differs")
		}
	}
}

func TestParallelErrorSurfaces(t *testing.T) {
	// An infeasible component must surface as an error in parallel mode
	// too. Query xy with only X available is rejected at prep already, so
	// use KTwo on a k=3 instance to hit a solver-level error instead.
	inst := multiComponentInstance(t, 4)
	opts := DefaultOptions()
	opts.Parallelism = 4
	if inst.MaxQueryLen() > 2 {
		if _, err := KTwo(inst, opts); err == nil {
			t.Error("expected error for k>2")
		}
	}
}
