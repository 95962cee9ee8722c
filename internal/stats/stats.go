// Package stats provides light-weight statistic collectors used across the
// simulator: scalar counters, accumulators with mean/min/max, and ratio
// helpers.  Everything is plain Go values so that
// collectors can be embedded in hot structures without indirection.
package stats

import "math"

// Counter is a monotonically increasing event counter.
type Counter struct {
	n uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n++ }

// Add adds delta to the counter.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset sets the counter back to zero.
func (c *Counter) Reset() { c.n = 0 }

// Accumulator tracks the sum, count, minimum and maximum of a stream of
// float64 samples.
type Accumulator struct {
	sum   float64
	sumSq float64
	count uint64
	min   float64
	max   float64
}

// Observe records one sample.
func (a *Accumulator) Observe(v float64) {
	if a.count == 0 {
		a.min, a.max = v, v
	} else {
		if v < a.min {
			a.min = v
		}
		if v > a.max {
			a.max = v
		}
	}
	a.sum += v
	a.sumSq += v * v
	a.count++
}

// Count returns the number of samples observed.
func (a *Accumulator) Count() uint64 { return a.count }

// Sum returns the sum of all samples.
func (a *Accumulator) Sum() float64 { return a.sum }

// Mean returns the sample mean, or zero if no samples were observed.
func (a *Accumulator) Mean() float64 {
	if a.count == 0 {
		return 0
	}
	return a.sum / float64(a.count)
}

// Variance returns the population variance, or zero if fewer than two
// samples were observed.
func (a *Accumulator) Variance() float64 {
	if a.count < 2 {
		return 0
	}
	m := a.Mean()
	v := a.sumSq/float64(a.count) - m*m
	if v < 0 {
		return 0
	}
	return v
}

// StdDev returns the population standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min returns the smallest observed sample (zero when empty).
func (a *Accumulator) Min() float64 {
	if a.count == 0 {
		return 0
	}
	return a.min
}

// Max returns the largest observed sample (zero when empty).
func (a *Accumulator) Max() float64 {
	if a.count == 0 {
		return 0
	}
	return a.max
}

// Reset discards all samples.
func (a *Accumulator) Reset() { *a = Accumulator{} }

// CycleAcc tracks the sum, count, minimum and maximum of a stream of
// integer cycle counts.  It is the hot-path counterpart of Accumulator: the
// per-access collectors (load latency, store acceptance delay) observe
// integer cycle deltas millions of times per run, and keeping the state in
// uint64 replaces two float64 additions and a multiply per observation with
// one integer add.  Float moments are computed once at report time; they
// are exact (bit-identical to a float64 accumulation of the same samples)
// as long as the sum stays below 2^53, which a cycle-latency sum of any
// realistic simulation does by many orders of magnitude.
type CycleAcc struct {
	sum   uint64
	count uint64
	min   uint64
	max   uint64
}

// Observe records one sample.
func (a *CycleAcc) Observe(v uint64) {
	if a.count == 0 {
		a.min, a.max = v, v
	} else {
		if v < a.min {
			a.min = v
		}
		if v > a.max {
			a.max = v
		}
	}
	a.sum += v
	a.count++
}

// Count returns the number of samples observed.
func (a *CycleAcc) Count() uint64 { return a.count }

// Sum returns the exact integer sum of all samples.
func (a *CycleAcc) Sum() uint64 { return a.sum }

// Mean returns the sample mean, or zero if no samples were observed.
func (a *CycleAcc) Mean() float64 {
	if a.count == 0 {
		return 0
	}
	return float64(a.sum) / float64(a.count)
}

// Min returns the smallest observed sample (zero when empty).
func (a *CycleAcc) Min() uint64 { return a.min }

// Max returns the largest observed sample (zero when empty).
func (a *CycleAcc) Max() uint64 { return a.max }

// Reset discards all samples.
func (a *CycleAcc) Reset() { *a = CycleAcc{} }

// RatioU returns num/den, or zero when den is zero.  It is the standard way
// the simulator computes rates (miss rate, occupation, ...).
func RatioU(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
