package solver

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestForEachComponentAggregatesConcurrentErrors guards against keeping only
// the first of several concurrent failures: two components rendezvous on a
// barrier so both are mid-flight when they fail, and both sentinels must be
// visible through errors.Is on the joined error.
func TestForEachComponentAggregatesConcurrentErrors(t *testing.T) {
	errA := errors.New("component A exploded")
	errB := errors.New("component B exploded")
	var barrier sync.WaitGroup
	barrier.Add(2)
	err := ForEachComponent(context.Background(), 2, 2, nil, func(i int) error {
		barrier.Done()
		barrier.Wait() // both components are in flight; both will fail
		if i == 0 {
			return errA
		}
		return errB
	})
	if err == nil {
		t.Fatal("want error, got nil")
	}
	if !errors.Is(err, errA) {
		t.Errorf("errors.Is(err, errA) = false; err = %v", err)
	}
	if !errors.Is(err, errB) {
		t.Errorf("errors.Is(err, errB) = false; err = %v", err)
	}
	if !strings.Contains(err.Error(), "2 components failed") {
		t.Errorf("error message should count the failures: %v", err)
	}
}

// TestForEachComponentConcurrentContextErrorsStayBare checks that when every
// concurrent failure is a context error, the aggregate is still the bare
// context error (not a join), so callers' errors.Is checks and error
// equality both keep working.
func TestForEachComponentConcurrentContextErrorsStayBare(t *testing.T) {
	var barrier sync.WaitGroup
	barrier.Add(2)
	err := ForEachComponent(context.Background(), 2, 2, nil, func(i int) error {
		barrier.Done()
		barrier.Wait()
		return context.Canceled
	})
	if err != context.Canceled {
		t.Fatalf("want bare context.Canceled, got %v", err)
	}
}

// TestForEachComponentMixedContextAndRealErrors: a real failure alongside a
// context error must surface the real failure (wrapped or joined), and both
// must remain matchable.
func TestForEachComponentMixedContextAndRealErrors(t *testing.T) {
	boom := errors.New("boom")
	var barrier sync.WaitGroup
	barrier.Add(2)
	err := ForEachComponent(context.Background(), 2, 2, nil, func(i int) error {
		barrier.Done()
		barrier.Wait()
		if i == 0 {
			return context.Canceled
		}
		return boom
	})
	if err == nil {
		t.Fatal("want error, got nil")
	}
	if !errors.Is(err, boom) {
		t.Errorf("errors.Is(err, boom) = false; err = %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false; err = %v", err)
	}
}

// TestForEachComponentLargestFirstOrder checks the parallel claim order:
// largest size first, ties in index order. The worker that claims the
// largest component is held, so the other worker must claim and finish every
// remaining component, in exactly the sorted order, while the first is
// blocked.
func TestForEachComponentLargestFirstOrder(t *testing.T) {
	sizes := []int{3, 9, 1, 9, 5, 0, 5, 2}
	want := []int{3, 4, 6, 0, 7, 2, 5} // after index 1, which is held
	release := make(chan struct{})
	rest := make(chan struct{})
	var mu sync.Mutex
	var order []int
	errCh := make(chan error, 1)
	go func() {
		errCh <- ForEachComponent(context.Background(), len(sizes), 2,
			func(i int) int { return sizes[i] },
			func(i int) error {
				if i == 1 {
					<-release
					return nil
				}
				mu.Lock()
				order = append(order, i)
				if len(order) == len(want) {
					close(rest)
				}
				mu.Unlock()
				return nil
			})
	}()
	select {
	case <-rest:
	case <-time.After(10 * time.Second):
		close(release)
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("only %v finished while one worker was held", order)
	}
	close(release)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, want) {
		t.Errorf("claim order %v, want %v", order, want)
	}
}
