// Package config assembles the knobs of every substrate into one system
// configuration and provides the presets used throughout the paper's
// evaluation (4 cores, private L2s of 256 KB to 2 MB each, i.e. 1 to 8 MB of
// total cache, MESI snoopy bus, write-through L1s).
package config

import (
	"fmt"

	"cmpleak/internal/cache"
	"cmpleak/internal/coherence"
	"cmpleak/internal/cpu"
	"cmpleak/internal/decay"
	"cmpleak/internal/mem"
	"cmpleak/internal/power"
	"cmpleak/internal/sim"
	"cmpleak/internal/thermal"
	"cmpleak/internal/workload"
)

// System is the full configuration of one simulation run.
type System struct {
	// Cores is the number of processors (the paper uses 4).
	Cores int
	// Core holds the per-core microarchitecture parameters.
	Core cpu.Config
	// L1 is the per-core L1 configuration template; the name is suffixed
	// with the core index at build time.
	L1 coherence.L1Config
	// L2 is the per-core private L2 template (size is per core, not total).
	L2 cache.Config
	// L2MSHREntries bounds outstanding L2 misses per controller.
	L2MSHREntries int
	// Bus is the shared snoopy bus configuration.
	Bus coherence.BusConfig
	// Memory is the off-chip memory configuration.
	Memory mem.Config
	// Technique selects the leakage-saving policy under evaluation.
	Technique decay.Spec
	// Power holds the energy model parameters.
	Power power.Params
	// Thermal holds the RC thermal model parameters.
	Thermal thermal.Config
	// ThermalSampleCycles is the power-trace sampling period (the paper
	// dumps power every 10 000 cycles).
	ThermalSampleCycles sim.Cycle
	// ThermalFeedback enables the leakage-temperature loop; disabling it
	// evaluates leakage at the initial temperature (an ablation knob).
	ThermalFeedback bool
	// Benchmark names a registered workload; Synthetic, when non-nil,
	// overrides it with a custom kernel.
	Benchmark string
	Synthetic *workload.SyntheticConfig
	// WorkloadScale multiplies benchmark reference counts (1.0 = the full
	// synthetic workload; experiments use smaller values for sweeps).
	WorkloadScale float64
	// Seed drives all pseudo-random streams.
	Seed uint64
	// MaxCycles aborts runaway simulations (0 = no limit).
	MaxCycles sim.Cycle
}

// Default returns the paper's reference system: 4 cores, 1 MB private L2
// per core (4 MB total), 32 KB write-through L1s, MESI snoopy bus, fixed
// 512K-cycle decay.
func Default() System {
	return System{
		Cores: 4,
		Core:  cpu.DefaultConfig(),
		L1:    coherence.DefaultL1Config("L1"),
		L2: cache.Config{
			Name:          "L2",
			SizeBytes:     1 * 1024 * 1024,
			LineBytes:     64,
			Assoc:         8,
			LatencyCycles: 12,
		},
		L2MSHREntries:       16,
		Bus:                 coherence.DefaultBusConfig(),
		Memory:              mem.DefaultConfig(),
		Technique:           decay.Spec{Kind: decay.KindDecay, DecayCycles: 512 * 1024},
		Power:               power.DefaultParams(),
		Thermal:             thermal.DefaultConfig(),
		ThermalSampleCycles: 10000,
		ThermalFeedback:     true,
		Benchmark:           "WATER-NS",
		WorkloadScale:       1.0,
		Seed:                1,
	}
}

// WithTotalL2MB returns a copy of the system with the total L2 capacity set
// to totalMB megabytes split evenly across the private caches (the paper
// sweeps 1, 2, 4 and 8 MB over 4 cores).
func (s System) WithTotalL2MB(totalMB int) System {
	out := s
	perCore := uint64(totalMB) * 1024 * 1024 / uint64(s.Cores)
	out.L2.SizeBytes = perCore
	return out
}

// WithCores returns a copy of the system with the given core count while
// preserving the total L2 capacity: the per-core private cache shrinks or
// grows so the aggregate stays what it was (the scenario layer sweeps core
// counts at fixed total cache, as the paper fixes total capacity per
// figure).  cores must divide the total capacity evenly — in practice a
// power of two, which the scenario layer enforces; a non-dividing count
// truncates and the resulting geometry fails Validate.
func (s System) WithCores(cores int) System {
	out := s
	total := s.TotalL2Bytes()
	out.Cores = cores
	if cores > 0 {
		out.L2.SizeBytes = total / uint64(cores)
	}
	return out
}

// WithTechnique returns a copy of the system using the given technique.
func (s System) WithTechnique(spec decay.Spec) System {
	out := s
	out.Technique = spec
	return out
}

// WithBenchmark returns a copy of the system running the named benchmark.
func (s System) WithBenchmark(name string) System {
	out := s
	out.Benchmark = name
	out.Synthetic = nil
	return out
}

// TotalL2Bytes returns the aggregate L2 capacity.
func (s System) TotalL2Bytes() uint64 {
	return s.L2.SizeBytes * uint64(s.Cores)
}

// Validate checks the whole configuration for consistency.
func (s System) Validate() error {
	if s.Cores <= 0 {
		return fmt.Errorf("config: Cores must be positive")
	}
	if s.Cores > thermal.MaxCores {
		return fmt.Errorf("config: the floorplan supports at most %d cores, got %d", thermal.MaxCores, s.Cores)
	}
	if err := s.Core.Validate(); err != nil {
		return fmt.Errorf("config: core: %w", err)
	}
	if err := s.L1.Cache.Validate(); err != nil {
		return fmt.Errorf("config: L1: %w", err)
	}
	if err := s.L2.Validate(); err != nil {
		return fmt.Errorf("config: L2: %w", err)
	}
	if s.L2.LineBytes != s.L1.Cache.LineBytes {
		return fmt.Errorf("config: L1 and L2 line sizes must match (%d vs %d)",
			s.L1.Cache.LineBytes, s.L2.LineBytes)
	}
	if s.L1.Cache.SizeBytes > s.L2.SizeBytes {
		return fmt.Errorf("config: inclusion requires L2 (%d B) to be at least as large as L1 (%d B)",
			s.L2.SizeBytes, s.L1.Cache.SizeBytes)
	}
	if s.L2MSHREntries < 0 {
		return fmt.Errorf("config: L2MSHREntries must be non-negative")
	}
	if err := s.Power.Validate(); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if err := s.Thermal.Validate(); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if s.ThermalSampleCycles == 0 {
		return fmt.Errorf("config: ThermalSampleCycles must be positive")
	}
	if s.WorkloadScale <= 0 {
		return fmt.Errorf("config: WorkloadScale must be positive")
	}
	if s.Synthetic == nil {
		if s.Benchmark == "" {
			return fmt.Errorf("config: either Benchmark or Synthetic must be set")
		}
		gen, err := workload.ByName(s.Benchmark, s.WorkloadScale)
		if err != nil {
			return err
		}
		// Generators tied to specific core counts (recorded traces, per-core
		// mixes) must match here, before any system is built on streams that
		// cannot exist.
		if err := workload.CheckCores(gen, s.Cores); err != nil {
			return err
		}
	} else if err := s.Synthetic.Validate(); err != nil {
		return err
	}
	return s.Technique.Validate()
}

// Workload builds the generator selected by the configuration.
func (s System) Workload() (workload.Generator, error) {
	if s.Synthetic != nil {
		return workload.NewSynthetic(*s.Synthetic, s.WorkloadScale)
	}
	return workload.ByName(s.Benchmark, s.WorkloadScale)
}

// Label returns a short human-readable description of the configuration,
// used in reports ("WATER-NS 4MB decay512K").
func (s System) Label() string {
	return fmt.Sprintf("%s %dMB %s", s.benchmarkName(), s.TotalL2Bytes()/(1024*1024), s.Technique.Name())
}

func (s System) benchmarkName() string {
	if s.Synthetic != nil {
		if s.Synthetic.Name != "" {
			return s.Synthetic.Name
		}
		return "synthetic"
	}
	return s.Benchmark
}

// PaperCacheSizesMB lists the total L2 capacities evaluated in the paper.
func PaperCacheSizesMB() []int { return []int{1, 2, 4, 8} }

// PaperDecayTimes lists the decay intervals evaluated in the paper.
func PaperDecayTimes() []sim.Cycle {
	return []sim.Cycle{512 * 1024, 128 * 1024, 64 * 1024}
}

// PaperTechniques returns the seven technique specifications of every figure
// (protocol, decay and selective decay at the three decay times), in the
// order the paper's figures list them.
func PaperTechniques() []decay.Spec {
	specs := []decay.Spec{{Kind: decay.KindProtocol}}
	for _, dt := range PaperDecayTimes() {
		specs = append(specs, decay.Spec{Kind: decay.KindDecay, DecayCycles: dt})
	}
	for _, dt := range PaperDecayTimes() {
		specs = append(specs, decay.Spec{Kind: decay.KindSelectiveDecay, DecayCycles: dt})
	}
	return specs
}

// Baseline returns the always-on specification.
func Baseline() decay.Spec { return decay.Spec{Kind: decay.KindAlwaysOn} }
