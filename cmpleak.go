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

	"cmpleak/internal/config"
	"cmpleak/internal/core"
	"cmpleak/internal/decay"
	"cmpleak/internal/experiment"
	"cmpleak/internal/sim"
	"cmpleak/internal/workload"

	// Register the "trace:<path>" benchmark scheme, so recorded binary
	// traces (internal/trace, written by tracegen or trace.Capture) run
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
// result cache's ReuseFor).
type SweepParallelism = experiment.Parallelism

// NamedSweepOptions labels one sweep of a RunSweeps batch.
type NamedSweepOptions = experiment.NamedOptions

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
