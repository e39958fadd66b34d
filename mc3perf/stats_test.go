package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(10)
	for _, c := range []struct{ p, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.01, 1}, {1, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.5); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 0.9, true},   // 10 beyond
		{99, 0.9, false},   // 9 beyond
		{1000, 0.99, true}, // 10 beyond
		{999, 0.99, false}, // 9 beyond
		{120, 0.99, false},
		{0, 0.5, false},
	} {
		if got := tailDefined(c.n, c.p); got != c.want {
			t.Errorf("tailDefined(%d, %v) = %v (beyond %d), want %v", c.n, c.p, got, beyond(c.n, c.p), c.want)
		}
	}
}

// The quartiles must match Python's statistics.quantiles(xs, n=4), the
// definition the spread bounds are checked with.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{4}, 4, 4},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedianAndRelativeIQR(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	xs := seq(10)
	if got, want := relIQR(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("relIQR(1..10) = %v, want %v", got, want)
	}
	if got := relIQR([]float64{0, 0, 0}); got != 0 {
		t.Errorf("relIQR of zeros = %v, want 0", got)
	}
	// median and quartiles must not reorder the caller's slice.
	in := []float64{3, 1, 2}
	median(in)
	quartiles(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("input reordered to %v", in)
	}
}

func TestJudgeFlagsOnlyOutsideTheBound(t *testing.T) {
	for _, c := range []struct {
		change, oldIQR, newIQR, bound float64
		better, want                  string
	}{
		{0.04, 0.01, 0.01, 0.05, "lower", ""},
		{0.06, 0.01, 0.01, 0.05, "lower", "WORSE"},
		{-0.06, 0.01, 0.01, 0.05, "lower", "better"},
		{-0.06, 0.01, 0.01, 0.05, "higher", "WORSE"},
		{0.06, 0.01, 0.01, 0.05, "higher", "better"},
		{0.20, 0.10, 0.01, 0.05, "lower", "unresolved (spread > bound)"},
	} {
		if got := judge(c.change, c.oldIQR, c.newIQR, c.bound, c.better); got != c.want {
			t.Errorf("judge(%+v) = %q, want %q", c, got, c.want)
		}
	}
}
