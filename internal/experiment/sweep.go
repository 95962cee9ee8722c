// Package experiment drives the paper's evaluation: it sweeps benchmarks,
// total cache sizes and leakage techniques, runs every configuration against
// its always-on baseline, and regenerates each figure of Section VI as a
// table of the same rows and series.
package experiment

import (
	"fmt"
	"sort"

	"cmpleak/internal/config"
	"cmpleak/internal/core"
	"cmpleak/internal/decay"
)

// Options selects the portion of the paper's design space to run.
type Options struct {
	// Base is the system template (cores, L1/L2 geometry, bus, power,
	// thermal); cache size, benchmark and technique are overridden per run.
	Base config.System
	// Benchmarks lists the workloads (default: the paper's six).
	Benchmarks []string
	// CacheSizesMB lists total L2 capacities (default: 1, 2, 4, 8).
	CacheSizesMB []int
	// Techniques lists the leakage techniques (default: the paper's seven
	// configurations); the always-on baseline is always run in addition.
	Techniques []decay.Spec
	// Scale multiplies workload lengths; 1.0 is the full synthetic
	// workload, smaller values trade fidelity for run time.
	Scale float64
	// Seed drives workload generation.
	Seed uint64
	// ShardIndex / ShardCount partition the sweep's job list across
	// processes or machines: shard i of n runs the (benchmark, size)
	// groups whose index in the canonical enumeration (benchmark-major,
	// then size) is congruent to i mod n.  Whole groups — the baseline
	// plus every technique of one (benchmark, size) pair — stay together,
	// so a shard's figures show real baseline-relative values for its own
	// groups instead of zero cells from a missing baseline.  The partition
	// is deterministic, disjoint and covering, so n invocations that
	// differ only in ShardIndex together produce exactly the full sweep.
	// ShardCount 0 (or 1) disables sharding.  A sharded sweep's figures
	// contain only the shard's own groups; merging is the caller's
	// concern.
	ShardIndex int
	ShardCount int
}

// DefaultOptions returns the full paper sweep at the given workload scale.
func DefaultOptions(scale float64) Options {
	return Options{
		Base:         config.Default(),
		Benchmarks:   append([]string(nil), paperBenchmarkOrder()...),
		CacheSizesMB: config.PaperCacheSizesMB(),
		Techniques:   config.PaperTechniques(),
		Scale:        scale,
		Seed:         1,
	}
}

// paperBenchmarkOrder is the Figure 6 ordering.
func paperBenchmarkOrder() []string {
	return []string{"mpeg2enc", "mpeg2dec", "facerec", "WATER-NS", "FMM", "VOLREND"}
}

// Validate checks the options.
func (o Options) Validate() error {
	if len(o.Benchmarks) == 0 || len(o.CacheSizesMB) == 0 || len(o.Techniques) == 0 {
		return fmt.Errorf("experiment: benchmarks, cache sizes and techniques must be non-empty")
	}
	if o.Scale <= 0 {
		return fmt.Errorf("experiment: Scale must be positive")
	}
	for _, mb := range o.CacheSizesMB {
		if mb <= 0 {
			return fmt.Errorf("experiment: cache size %d MB invalid", mb)
		}
	}
	if o.ShardCount < 0 {
		return fmt.Errorf("experiment: ShardCount %d must be non-negative", o.ShardCount)
	}
	if o.ShardCount > 0 && (o.ShardIndex < 0 || o.ShardIndex >= o.ShardCount) {
		return fmt.Errorf("experiment: ShardIndex %d out of range [0,%d)", o.ShardIndex, o.ShardCount)
	}
	return nil
}

// Key identifies one run of the sweep.
type Key struct {
	Benchmark string
	SizeMB    int
	Technique string
}

// String renders the key.
func (k Key) String() string {
	return fmt.Sprintf("%s/%dMB/%s", k.Benchmark, k.SizeMB, k.Technique)
}

// Sweep holds the results of every run, including the baselines.
type Sweep struct {
	Options Options
	results map[Key]core.Result
}

// baselineName is the technique label of the always-on runs.
const baselineName = "baseline"

// runJob executes one configuration; a variable so tests can observe and
// fail individual jobs.
var runJob = core.Run

// job is one simulation of the sweep.
type job struct {
	key  Key
	spec decay.Spec
}

// jobs enumerates this Options' runs in canonical feed order — benchmark-
// major, then cache size, then the baseline followed by the techniques —
// after applying the shard filter.  Sharding assigns whole (benchmark,
// size) groups, never splitting a baseline from its technique runs.
func (o Options) jobs() []job {
	var all []job
	group := 0
	for _, bench := range o.Benchmarks {
		for _, mb := range o.CacheSizesMB {
			take := o.ShardCount <= 1 || group%o.ShardCount == o.ShardIndex
			group++
			if !take {
				continue
			}
			all = append(all, job{Key{bench, mb, baselineName}, config.Baseline()})
			for _, spec := range o.Techniques {
				all = append(all, job{Key{bench, mb, spec.Name()}, spec})
			}
		}
	}
	return all
}

// Jobs returns the run keys this Options would execute, in feed order and
// after shard filtering; leaksweep uses it for progress reporting and the
// shard tests assert the partition is disjoint and covering.
func (o Options) Jobs() []Key {
	js := o.jobs()
	keys := make([]Key, len(js))
	for i, j := range js {
		keys[i] = j.key
	}
	return keys
}

// Result returns the run identified by the key.
func (s *Sweep) Result(bench string, sizeMB int, technique string) (core.Result, bool) {
	r, ok := s.results[Key{bench, sizeMB, technique}]
	return r, ok
}

// Baseline returns the always-on run for (bench, size).
func (s *Sweep) Baseline(bench string, sizeMB int) (core.Result, bool) {
	return s.Result(bench, sizeMB, baselineName)
}

// Compare returns the relative metrics of a technique run against its
// baseline.
func (s *Sweep) Compare(bench string, sizeMB int, technique string) (core.Comparison, bool) {
	r, ok1 := s.Result(bench, sizeMB, technique)
	b, ok2 := s.Baseline(bench, sizeMB)
	if !ok1 || !ok2 {
		return core.Comparison{}, false
	}
	return core.Compare(r, b), true
}

// TechniqueNames returns the technique labels of the sweep in their
// configured order.
func (s *Sweep) TechniqueNames() []string {
	names := make([]string, 0, len(s.Options.Techniques))
	for _, spec := range s.Options.Techniques {
		names = append(names, spec.Name())
	}
	return names
}

// Keys returns all run keys in a stable order (for reports and debugging).
func (s *Sweep) Keys() []Key {
	keys := make([]Key, 0, len(s.results))
	for k := range s.results {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Benchmark != keys[j].Benchmark {
			return keys[i].Benchmark < keys[j].Benchmark
		}
		if keys[i].SizeMB != keys[j].SizeMB {
			return keys[i].SizeMB < keys[j].SizeMB
		}
		return keys[i].Technique < keys[j].Technique
	})
	return keys
}

// averageOverBenchmarks applies metric to every benchmark of the sweep for a
// given size and technique, and returns the arithmetic mean — the
// aggregation the paper uses for Figures 3 to 5.
func (s *Sweep) averageOverBenchmarks(sizeMB int, technique string,
	metric func(r, b core.Result) float64) (float64, bool) {
	sum, n := 0.0, 0
	for _, bench := range s.Options.Benchmarks {
		r, ok1 := s.Result(bench, sizeMB, technique)
		b, ok2 := s.Baseline(bench, sizeMB)
		if !ok1 || !ok2 {
			continue
		}
		sum += metric(r, b)
		n++
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}
