package main

import (
	"math"
	"slices"
	"time"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median is Python's statistics.median: the middle value, or the mean of the
// two middle values; 0 for no values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100): the smallest
// value with at least p% of the values at or below it; 0 for no values.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	// The epsilon keeps a rank that is whole in exact arithmetic, such as
	// tailPercentile's, from rounding up to the next sample.
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	return s[min(max(rank, 1), n)-1]
}

// tailPercentile is the highest percentile, at most 95, that leaves at least
// ten of n samples beyond it, so a tail is never one unlucky sample; with 20
// or fewer samples it is the median.  The cap is 95, not 99: a host stall of
// a few hundred milliseconds covers 1% of a service-warm run's requests, and
// its p99 was the least steady metric of the benchmark (bench/README.md,
// noise protocol).
func tailPercentile(n int) float64 {
	if n <= 20 {
		return 50
	}
	return min(95, 100*float64(n-10)/float64(n))
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so a spread computed here matches one computed in Python.  A
// single value is its own quartiles; no values give zeros.
func quartiles(xs []float64) (q1, q3 float64) {
	ld := len(xs)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median (0 when the
// median is 0).
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }
