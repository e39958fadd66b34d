package setcover

import (
	"container/heap"
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
)

// refHeap is a container/heap priority queue of greedy entries in greedy's
// order: lower priority first, then lower set number.
type refHeap []greedyItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority < h[j].priority
	}
	return h[i].set < h[j].set
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(greedyItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// refGreedy is greedyCtx's selection loop with container/heap holding every
// queued entry.
func refGreedy(in *Instance) (picked []int, total float64, pops int) {
	covered := bitset.New(in.numElements)
	h := make(refHeap, 0, in.NumSets())
	for s := 0; s < in.NumSets(); s++ {
		if elems := in.Set(s); len(elems) > 0 {
			h = append(h, greedyItem{set: int32(s), priority: in.costs[s] / float64(len(elems))})
		}
	}
	heap.Init(&h)
	for remaining := in.numElements; remaining > 0; pops++ {
		it := heap.Pop(&h).(greedyItem)
		cnt := int32(0)
		for _, e := range in.Set(int(it.set)) {
			if !covered.Test(int(e)) {
				cnt++
			}
		}
		if cnt == 0 {
			continue
		}
		current := in.costs[it.set] / float64(cnt)
		if current > it.priority+1e-15 {
			heap.Push(&h, greedyItem{set: it.set, priority: current})
			continue
		}
		picked = append(picked, int(it.set))
		total += in.costs[it.set]
		for _, e := range in.Set(int(it.set)) {
			if !covered.TestAndSet(int(e)) {
				remaining--
			}
		}
	}
	return picked, total, pops
}

// TestGreedyHeapMatchesContainerHeap runs greedy on its bucketed queue and
// on container/heap ordered by (priority, set) over random instances whose
// ratios tie often, and requires the same picks in the same order, the same
// cost and the same number of pops. It checks the queue against a second
// queue; TestCSRMatchesReference checks greedy against a scan of every set.
func TestGreedyHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 300; trial++ {
		nElems, sets, costs := tieSets(rng, trial)
		in := New(nElems)
		for s := range sets {
			in.AddSet(sets[s], costs[s])
		}
		picked, total, pops, err := in.greedyCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		refPicked, refTotal, refPops := refGreedy(in)
		if !slices.Equal(picked, refPicked) || total != refTotal || pops != refPops {
			t.Fatalf("trial %d: bucketed queue picked %v (cost %v, %d pops), container/heap %v (cost %v, %d pops)",
				trial, picked, total, pops, refPicked, refTotal, refPops)
		}
	}
}
