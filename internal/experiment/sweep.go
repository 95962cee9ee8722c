// Package experiment drives the paper's evaluation: it sweeps benchmarks,
// total cache sizes and leakage techniques, runs every configuration against
// its always-on baseline, and regenerates each figure of Section VI as a
// table of the same rows and series.
package experiment

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"cmpleak/internal/config"
	"cmpleak/internal/core"
	"cmpleak/internal/decay"
	"cmpleak/internal/workload"
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
	// contain only the shard's own groups.  The slice does not enter
	// Digest, so shards that record into result caches are joined by
	// serving the unsharded sweep from the union of those caches
	// (`leaksweep -merge`).
	ShardIndex int
	ShardCount int
}

// DefaultOptions returns the full paper sweep at the given workload scale.
func DefaultOptions(scale float64) Options {
	return Options{
		Base:         config.Default(),
		Benchmarks:   workload.PaperBenchmarks(),
		CacheSizesMB: config.PaperCacheSizesMB(),
		Techniques:   config.PaperTechniques(),
		Scale:        scale,
		Seed:         1,
	}
}

// Validate checks the options.  Every axis must list distinct values — and
// distinct technique labels, so "decay:64K" next to "decay:65536" is a
// repeat — because a run is identified by its (benchmark, size, technique
// label) key: a repeated value would simulate the same jobs again and
// print duplicate report columns.
func (o Options) Validate() error {
	if len(o.Benchmarks) == 0 || len(o.CacheSizesMB) == 0 || len(o.Techniques) == 0 {
		return fmt.Errorf("experiment: benchmarks, cache sizes and techniques must be non-empty")
	}
	if o.Scale <= 0 {
		return fmt.Errorf("experiment: Scale must be positive")
	}
	for i, mb := range o.CacheSizesMB {
		if mb <= 0 {
			return fmt.Errorf("experiment: cache size %d MB invalid", mb)
		}
		if slices.Contains(o.CacheSizesMB[:i], mb) {
			return fmt.Errorf("experiment: cache sizes list %d MB twice", mb)
		}
	}
	for i, bench := range o.Benchmarks {
		if slices.Contains(o.Benchmarks[:i], bench) {
			return fmt.Errorf("experiment: benchmarks list %q twice", bench)
		}
	}
	names := o.techniqueNames()
	for i, name := range names {
		if name == baselineName {
			return fmt.Errorf("experiment: technique %q duplicates the always-on baseline, which every sweep runs", name)
		}
		if slices.Contains(names[:i], name) {
			return fmt.Errorf("experiment: techniques list %q twice", name)
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

// String renders the key as "benchmark/<size>MB/technique".
func (k Key) String() string {
	return string(k.appendTo(nil))
}

// appendTo appends k.String() to b.
func (k Key) appendTo(b []byte) []byte {
	b = append(b, k.Benchmark...)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(k.SizeMB), 10)
	b = append(b, "MB/"...)
	return append(b, k.Technique...)
}

// Sweep holds the results of every run, including the baselines.
//
// Results live in one slice in feed order (Options.Jobs() order), and the
// axis indices that locate a run in it are computed once, when the sweep is
// assembled: figures, headlines and the digest read runs by index instead
// of hashing keys.  Validate guarantees every key is unique.
type Sweep struct {
	Options Options
	// names are the technique labels in configured order.
	names []string
	// keys and res hold every run in feed order: res[i] is keys[i]'s result.
	keys []Key
	res  []core.Result
	// group holds, per (benchmark, size) pair in benchmark-major order, the
	// feed position of the pair's baseline run, or -1 when the pair is
	// outside the sweep's shard; technique t of the pair sits at
	// group+1+t.
	group []int
	// sorted lists the feed positions in Keys() order.
	sorted []int
}

// baselineName is the technique label of the always-on runs.
const baselineName = "baseline"

// runJob rebuilds the worker's System s for one configuration, its cores
// driven by gen's streams (nil: cfg.Workload()'s), and runs it; a variable
// so tests can observe and fail individual jobs.
var runJob = func(s *core.System, cfg config.System, gen workload.Generator) (core.Result, error) {
	if err := s.Rebuild(cfg, gen); err != nil {
		return core.Result{}, err
	}
	return s.Run()
}

// job is one simulation of the sweep.
type job struct {
	key  Key
	spec decay.Spec
}

// techniqueNames returns the technique labels in configured order.
func (o Options) techniqueNames() []string {
	names := make([]string, len(o.Techniques))
	for i, spec := range o.Techniques {
		names[i] = spec.Name()
	}
	return names
}

// jobConfig is the system configuration job j simulates.
func (o Options) jobConfig(j job) config.System {
	cfg := o.Base.
		WithBenchmark(j.key.Benchmark).
		WithTotalL2MB(j.key.SizeMB).
		WithTechnique(j.spec)
	cfg.WorkloadScale = o.Scale
	cfg.Seed = o.Seed
	return cfg
}

// takesGroup reports whether the shard filter keeps the (benchmark, size)
// group with the given index in the canonical enumeration.
func (o Options) takesGroup(group int) bool {
	return o.ShardCount <= 1 || group%o.ShardCount == o.ShardIndex
}

// jobs enumerates this Options' runs in canonical feed order — benchmark-
// major, then cache size, then the baseline followed by the techniques —
// after applying the shard filter.  Sharding assigns whole (benchmark,
// size) groups, never splitting a baseline from its technique runs.
func (o Options) jobs() []job {
	names := o.techniqueNames()
	all := make([]job, 0, o.NumJobs())
	group := 0
	for _, bench := range o.Benchmarks {
		for _, mb := range o.CacheSizesMB {
			take := o.takesGroup(group)
			group++
			if !take {
				continue
			}
			all = append(all, job{Key{bench, mb, baselineName}, config.Baseline()})
			for i, spec := range o.Techniques {
				all = append(all, job{Key{bench, mb, names[i]}, spec})
			}
		}
	}
	return all
}

// Jobs returns the run keys this Options would execute, in feed order and
// after shard filtering; the shard tests assert the partition is disjoint
// and covering.
func (o Options) Jobs() []Key {
	js := o.jobs()
	keys := make([]Key, len(js))
	for i, j := range js {
		keys[i] = j.key
	}
	return keys
}

// NumJobs counts the runs Jobs returns without building them: one baseline
// plus one run per technique for every (benchmark, size) group the shard
// filter keeps.
func (o Options) NumJobs() int {
	groups := 0
	for g := range len(o.Benchmarks) * len(o.CacheSizesMB) {
		if o.takesGroup(g) {
			groups++
		}
	}
	return groups * (1 + len(o.Techniques))
}

// newSweep assembles an empty sweep over the given feed-order jobs (which
// must be opts.jobs()): every result slot is zero until the caller fills
// it.
func newSweep(opts Options, js []job) *Sweep {
	s := &Sweep{
		Options: opts,
		names:   opts.techniqueNames(),
		keys:    make([]Key, len(js)),
		res:     make([]core.Result, len(js)),
		group:   make([]int, len(opts.Benchmarks)*len(opts.CacheSizesMB)),
		sorted:  make([]int, 0, len(js)),
	}
	for i, j := range js {
		s.keys[i] = j.key
	}
	pos := 0
	for g := range s.group {
		s.group[g] = -1
		if opts.takesGroup(g) {
			s.group[g] = pos
			pos += 1 + len(opts.Techniques)
		}
	}

	// Keys() order is lexicographic on (benchmark, size, technique).  With
	// every axis value distinct, walking each axis in its own sorted order
	// yields exactly that order without comparing whole keys.
	benches := sortedIndices(len(opts.Benchmarks), func(a, b int) int {
		return strings.Compare(opts.Benchmarks[a], opts.Benchmarks[b])
	})
	sizes := sortedIndices(len(opts.CacheSizesMB), func(a, b int) int {
		return opts.CacheSizesMB[a] - opts.CacheSizesMB[b]
	})
	// Offsets within a group: 0 is the baseline, 1+t technique t.
	techs := sortedIndices(1+len(s.names), func(a, b int) int {
		return strings.Compare(s.groupLabel(a), s.groupLabel(b))
	})
	for _, bi := range benches {
		for _, si := range sizes {
			base := s.group[bi*len(sizes)+si]
			if base < 0 {
				continue
			}
			for _, off := range techs {
				s.sorted = append(s.sorted, base+off)
			}
		}
	}
	return s
}

// groupLabel is the technique label at offset off within a group.
func (s *Sweep) groupLabel(off int) string {
	if off == 0 {
		return baselineName
	}
	return s.names[off-1]
}

// sortedIndices returns 0..n-1 ordered by cmp.
func sortedIndices(n int, cmp func(a, b int) int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, cmp)
	return idx
}

// at returns the run of technique t (-1 for the baseline) in the
// (benchmark bi, size si) group, or nil when the group is not in the sweep.
func (s *Sweep) at(bi, si, t int) *core.Result {
	base := s.group[bi*len(s.Options.CacheSizesMB)+si]
	if base < 0 {
		return nil
	}
	return &s.res[base+1+t]
}

// techIndex returns the position of a technique label in configured order,
// -1 for the baseline, and ok false when the sweep has no such technique.
func (s *Sweep) techIndex(technique string) (int, bool) {
	if technique == baselineName {
		return -1, true
	}
	t := slices.Index(s.names, technique)
	return t, t >= 0
}

// position returns the feed position of the run identified by the key, or
// -1 when the sweep does not hold it.
func (s *Sweep) position(k Key) int {
	bi := slices.Index(s.Options.Benchmarks, k.Benchmark)
	si := slices.Index(s.Options.CacheSizesMB, k.SizeMB)
	t, ok := s.techIndex(k.Technique)
	if bi < 0 || si < 0 || !ok {
		return -1
	}
	base := s.group[bi*len(s.Options.CacheSizesMB)+si]
	if base < 0 {
		return -1
	}
	return base + 1 + t
}

// find locates the run identified by the key, or returns nil.
func (s *Sweep) find(bench string, sizeMB int, technique string) *core.Result {
	if i := s.position(Key{bench, sizeMB, technique}); i >= 0 {
		return &s.res[i]
	}
	return nil
}

// Result returns the run identified by the key.
func (s *Sweep) Result(bench string, sizeMB int, technique string) (core.Result, bool) {
	if r := s.find(bench, sizeMB, technique); r != nil {
		return *r, true
	}
	return core.Result{}, false
}

// Baseline returns the always-on run for (bench, size).
func (s *Sweep) Baseline(bench string, sizeMB int) (core.Result, bool) {
	return s.Result(bench, sizeMB, baselineName)
}

// Compare returns the relative metrics of a technique run against its
// baseline.
func (s *Sweep) Compare(bench string, sizeMB int, technique string) (core.Comparison, bool) {
	r, b := s.find(bench, sizeMB, technique), s.find(bench, sizeMB, baselineName)
	if r == nil || b == nil {
		return core.Comparison{}, false
	}
	return core.Compare(*r, *b), true
}

// TechniqueNames returns the technique labels of the sweep in their
// configured order.
func (s *Sweep) TechniqueNames() []string {
	return slices.Clone(s.names)
}

// Keys returns all run keys in a stable order (for reports and debugging):
// by benchmark, then size, then technique label.
func (s *Sweep) Keys() []Key {
	keys := make([]Key, len(s.sorted))
	for i, pos := range s.sorted {
		keys[i] = s.keys[pos]
	}
	return keys
}

// averageOverBenchmarks applies metric to every benchmark of the sweep for
// one size and technique (by axis index, t == -1 for the baseline), and
// returns the arithmetic mean — the aggregation the paper uses for Figures
// 3 to 5.
func (s *Sweep) averageOverBenchmarks(si, t int, metric metricFunc) (float64, bool) {
	sum, n := 0.0, 0
	for bi := range s.Options.Benchmarks {
		r, b := s.at(bi, si, t), s.at(bi, si, -1)
		if r == nil {
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
