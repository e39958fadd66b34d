package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples a tail percentile needs above it before
// it is reported: with fewer, the percentile is decided by a handful of
// samples and says nothing repeatable.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of sorted: the
// smallest sample with at least a share p of the samples at or below it.
// sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// beyond counts the samples of an n-sample run that lie above the
// nearest-rank p-quantile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// tailDefined reports whether an n-sample run has at least minBeyond samples
// beyond its p-quantile, the condition for reporting latency_p90_ms and
// latency_p99_ms.
func tailDefined(n int, p float64) bool {
	return n > 0 && beyond(n, p) >= minBeyond
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count). xs is not modified; it must be non-empty.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs with the "exclusive"
// interpolation of Python's statistics.quantiles(xs, n=4), the definition the
// benchmark's spread bounds are stated in. xs must be non-empty.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	if len(s) == 1 {
		return s[0], s[0]
	}
	const n = 4
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// relIQR is the interquartile range of xs as a share of its median: the
// spread measure the benchmark bounds every end-to-end metric by. It is 0
// for a zero median.
func relIQR(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
