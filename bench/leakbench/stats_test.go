package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // unsorted on purpose
	}
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 99, 0},
		{hundred, 99, 99},
		{hundred, 100, 100},
		{hundred, 50, 50},
		{hundred, 0.5, 1},
		{ten, 99, 10}, // fewer than 100 values: the slowest one
		{ten, 90, 9},
		{ten, 50, 5},
	} {
		if got := percentile(tc.xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {20, 50}, {30, 100 * 20.0 / 30}, {100, 90}, {200, 95}, {1000, 95}, {8000, 95},
	} {
		got := tailPercentile(tc.n)
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if tc.n > 20 {
			xs := make([]float64, tc.n)
			for i := range xs {
				xs[i] = float64(i + 1)
			}
			if beyond := float64(tc.n) - percentile(xs, got); beyond < 10 {
				t.Errorf("n=%d: %v samples beyond the tail, want at least 10", tc.n, beyond)
			}
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4)[0] and [2].
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{5}, 5, 5},
		{[]float64{1, 3}, 0.5, 3.5},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10.2, 9.9, 10.1, 10.0, 10.4, 9.8, 10.3, 10.0, 10.1, 9.7}, 9.875, 10.225},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread of zeros = %v, want 0", got)
	}
}
