// Package cmpleak is the public facade of the reproduction of
// "Using Coherence Information and Decay Techniques to Optimize L2 Cache
// Leakage in CMPs" (Monchiero, Canal, González — ICPP 2009).
//
// It exposes the full CMP simulator (cores, write-through L1s, leakage-aware
// private snoopy L2s, MESI bus, power and thermal models), the three leakage
// techniques of the paper (Protocol, Decay, Selective Decay) plus the
// always-on baseline, and the experiment harness that regenerates every
// figure of the paper's evaluation.
//
// Quick start:
//
//	cfg := cmpleak.DefaultConfig().
//		WithBenchmark("WATER-NS").
//		WithTotalL2MB(4).
//		WithTechnique(cmpleak.SelectiveDecay(512 * 1024))
//	res, err := cmpleak.Run(cfg)
//	if err != nil { ... }
//	fmt.Printf("occupation %.1f%%, IPC %.2f\n", res.L2OccupationRate*100, res.IPC)
//
// To compare against the unoptimised cache, run the same configuration with
// cmpleak.Baseline() and use cmpleak.Compare.
package cmpleak

import (
	"context"
	"io"

	"cmpleak/internal/config"
	"cmpleak/internal/core"
	"cmpleak/internal/decay"
	"cmpleak/internal/experiment"
	"cmpleak/internal/resultcache"
	"cmpleak/internal/scenario"
	"cmpleak/internal/sim"
	"cmpleak/internal/workload"

	// Register the "trace:<path>" benchmark scheme, so recorded binary
	// traces (internal/trace, written by tracegen or trace.Record) run
	// anywhere a benchmark name is accepted.
	_ "cmpleak/internal/trace"
)

// Config is the full system configuration of one simulation run.  Use
// DefaultConfig and the With* helpers to derive variants.
type Config = config.System

// Result carries everything one run measures: execution time, IPC, L2
// occupation rate, miss rate, AMAT, memory traffic, the energy breakdown and
// the technique activity counters.
type Result = core.Result

// Comparison holds the paper's relative metrics of a run against its
// always-on baseline (energy reduction, IPC loss, AMAT and bandwidth
// increase).
type Comparison = core.Comparison

// TechniqueSpec selects a leakage-saving technique.
type TechniqueSpec = decay.Spec

// Cycle is the simulation time unit (one core clock cycle).
type Cycle = sim.Cycle

// SweepOptions configures a multi-run experiment sweep.
type SweepOptions = experiment.Options

// Sweep is the result set of a full experiment sweep; it exposes the
// Figure3a..Figure6b generators.
type Sweep = experiment.Sweep

// FigureTable is one reconstructed figure (rows = technique configurations,
// columns = cache sizes or benchmarks).
type FigureTable = experiment.Table

// SyntheticWorkload configures the generic workload kernel for custom
// experiments.
type SyntheticWorkload = workload.SyntheticConfig

// DefaultConfig returns the paper's reference system: a 4-core CMP with
// 32 KB write-through L1s, 1 MB private L2 per core (4 MB total), a MESI
// snoopy bus, and the fixed 512K-cycle Decay technique.
func DefaultConfig() Config { return config.Default() }

// Run builds the CMP described by cfg and executes the configured workload
// to completion.
func Run(cfg Config) (Result, error) { return core.Run(cfg) }

// Compare computes the paper's relative metrics of run r against baseline b
// (both should use the same benchmark and cache size).
func Compare(r, b Result) Comparison { return core.Compare(r, b) }

// Baseline returns the always-on (unoptimised) configuration used as the
// reference of every figure.
func Baseline() TechniqueSpec { return config.Baseline() }

// Protocol returns the "Turn off on Protocol Invalidation" technique.
func Protocol() TechniqueSpec { return TechniqueSpec{Kind: decay.KindProtocol} }

// Decay returns the fixed cache-decay technique with the given decay
// interval in cycles (the paper evaluates 64K, 128K and 512K).
func Decay(decayCycles Cycle) TechniqueSpec {
	return TechniqueSpec{Kind: decay.KindDecay, DecayCycles: decayCycles}
}

// SelectiveDecay returns the performance-optimised Selective Decay technique
// with the given decay interval.
func SelectiveDecay(decayCycles Cycle) TechniqueSpec {
	return TechniqueSpec{Kind: decay.KindSelectiveDecay, DecayCycles: decayCycles}
}

// AdaptiveDecay returns the Adaptive-Mode-Control extension (not part of the
// paper's evaluation; used by the ablation benchmarks).
func AdaptiveDecay(initialCycles Cycle) TechniqueSpec {
	return TechniqueSpec{Kind: decay.KindAdaptive, DecayCycles: initialCycles}
}

// PaperTechniques returns the seven technique configurations of the paper's
// figures (protocol, decay and selective decay at 512K/128K/64K cycles).
func PaperTechniques() []TechniqueSpec { return config.PaperTechniques() }

// PaperCacheSizesMB returns the total L2 capacities of the paper's sweep.
func PaperCacheSizesMB() []int { return config.PaperCacheSizesMB() }

// PaperBenchmarks returns the six benchmark names of the paper's evaluation.
func PaperBenchmarks() []string { return workload.PaperBenchmarks() }

// DefaultSweepOptions returns the full paper sweep at the given workload
// scale (1.0 = full synthetic workloads; smaller values shrink run time).
func DefaultSweepOptions(scale float64) SweepOptions {
	return experiment.DefaultOptions(scale)
}

// SweepParallelism configures the in-process worker pool of RunSweeps: the
// worker count (one engine per worker; 0 = GOMAXPROCS), an optional per-job
// progress callback, the retry policy and an optional Reuse lookup (a
// ResultCache's ReuseFor).
type SweepParallelism = experiment.Parallelism

// SweepJobEvent is one pool progress notification: the job's key, its cell
// label, success or failure, and completed/total counts.
type SweepJobEvent = experiment.JobEvent

// NamedSweepOptions labels one sweep of a RunSweeps batch.
type NamedSweepOptions = experiment.NamedOptions

// SweepKey identifies one job of a sweep: (benchmark, size, technique).
type SweepKey = experiment.Key

// SweepRetryPolicy configures per-job retries of transient failures in the
// worker pool (deterministic backoff; the zero value disables retries).
type SweepRetryPolicy = experiment.RetryPolicy

// SweepJobPanicError reports a job panic that was contained to its job: the
// pool drains cleanly and returns this instead of crashing the process.
type SweepJobPanicError = experiment.JobPanicError

// RunSweeps executes every sweep of the batch (baselines plus every
// technique for every benchmark and cache size) through one shared
// in-process worker pool and returns one Sweep per entry, in input order.
// Each is byte-identical (digest, figures, report) to running that sweep
// alone at any worker count; a single sweep is a one-entry batch.  When ctx
// is canceled, in-flight jobs finish, queued jobs are skipped, and the pool
// returns a cancellation error naming how far it got.
func RunSweeps(ctx context.Context, sweeps []NamedSweepOptions, p SweepParallelism) ([]*Sweep, error) {
	return experiment.RunParallelAllContext(ctx, sweeps, p)
}

// ScenarioNamedOptions converts expanded cells to RunSweeps' batch input.
func ScenarioNamedOptions(cells []ScenarioCell) []NamedSweepOptions {
	return scenario.NamedOptions(cells)
}

// WriteSweepReport renders a sweep's report — one figure (fig = "3a".."6b")
// or, with fig == "", the per-size headlines plus every figure in paper
// order — as markdown tables (or CSV with csv set).  It is the single
// renderer behind both `leaksweep` stdout and the leakserved service's
// report endpoint, so their output is byte-identical by construction.
func WriteSweepReport(w io.Writer, s *Sweep, fig string, csv bool) error {
	return experiment.WriteReport(w, s, fig, csv)
}

// GoldenAnchor identifies the simulator's current bit-exact behaviour (the
// recorded golden sweep digest).  Persistent result stores stamp every
// record with it and never serve records stamped with a different one, so a
// model change invalidates every cache at once.
const GoldenAnchor = experiment.GoldenAnchor

// ResultCache is a persistent content-addressed store of completed job
// results, shared across runs and processes: append-only CRC-framed
// segments, an in-memory index with O(1) lookup, LRU eviction under a byte
// budget, and atomic compaction.  `leaksweep -cache` and the leakserved
// service both sit on it.
type ResultCache = resultcache.Store

// ResultCacheRecord is one cached job result: the golden anchor and options
// digest it was simulated under, the job key, and the full result.
type ResultCacheRecord = resultcache.Record

// ResultCacheOptions configures a ResultCache (anchor override, byte budget,
// compaction threshold); the zero value gives an unbounded store under the
// current GoldenAnchor.
type ResultCacheOptions = resultcache.Options

// ResultCacheStats is a point-in-time snapshot of a store's counters.
type ResultCacheStats = resultcache.Stats

// OpenResultCache opens (creating if needed) the content-addressed result
// store in dir.
func OpenResultCache(dir string, opt ResultCacheOptions) (*ResultCache, error) {
	return resultcache.Open(dir, opt)
}

// MergeResultCaches joins the result caches in every directory matching glob
// (typically one per `leaksweep -shard i/n -cache DIRi` run) into an
// in-memory ResultCache whose ReuseFor serves every job of the batch, so
// RunSweeps simulates nothing.  It refuses a union that misses a job or
// holds two different results for one, an empty glob, and any matched path
// that is not a result cache directory.
func MergeResultCaches(glob string, sweeps []NamedSweepOptions) (*ResultCache, error) {
	return resultcache.Merge(glob, sweeps)
}

// ParseTechnique parses a textual technique specification ("baseline",
// "protocol", "decay:512K", "sel_decay:64K", "adaptive:128K", or a compact
// figure label like "decay512K").
func ParseTechnique(s string) (TechniqueSpec, error) { return decay.ParseSpec(s) }

// ParseCycles parses a cycle count with the paper's K/M suffixes ("512K",
// "1M", "8192").
func ParseCycles(s string) (Cycle, error) { return decay.ParseCycles(s) }

// Scenario is one parsed declarative experiment matrix (see
// internal/scenario for the schema); Expand turns it into self-contained
// sweep options.
type Scenario = scenario.File

// ScenarioCell is one expanded experiment of a scenario: a label plus the
// SweepOptions that reproduce it.
type ScenarioCell = scenario.Cell

// LoadScenario reads, parses and validates the scenario file at path.
func LoadScenario(path string) (Scenario, error) { return scenario.Load(path) }

// ParseScenario parses and validates scenario JSON held in memory.
func ParseScenario(data []byte) (Scenario, error) { return scenario.Parse(data) }
