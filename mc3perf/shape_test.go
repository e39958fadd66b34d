package main

import (
	"math"
	"testing"
)

// Every client's first round must ask for the same mix whatever the seed:
// each rank's count in any window stays within one request of its share.
func TestZipfSequenceKeepsSharesInEveryWindow(t *testing.T) {
	seq := zipfSequence(solveSeqLen, solvePool, solveZipfS)
	total := 0.0
	for k := 0; k < solvePool; k++ {
		total += math.Pow(float64(1+k), -solveZipfS)
	}
	for _, off := range []int{0, solveSeqLen / 2} {
		counts := make([]int, solvePool)
		for _, k := range seq[off : off+solveRound] {
			counts[k]++
		}
		for k, n := range counts {
			want := float64(solveRound) * math.Pow(float64(1+k), -solveZipfS) / total
			if math.Abs(float64(n)-want) > 1.5 {
				t.Errorf("window at %d: rank %d sent %d times, share %.2f", off, k, n, want)
			}
		}
	}
}

func TestSolveSizesCoverTheRange(t *testing.T) {
	seen := map[int]bool{}
	for i := 0; i < solvePool; i++ {
		n := solveSize(i)
		if n < solveMinSize || n > solveMaxSize || seen[n] {
			t.Fatalf("rank %d: size %d (sizes so far %v)", i, n, seen)
		}
		seen[n] = true
	}
	if !seen[solveMinSize] || !seen[solveMaxSize] {
		t.Errorf("sizes %v miss an end of [%d, %d]", seen, solveMinSize, solveMaxSize)
	}
}
