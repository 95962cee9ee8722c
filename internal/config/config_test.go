package config

import (
	"strings"
	"testing"

	"cmpleak/internal/decay"
	"cmpleak/internal/thermal"
	"cmpleak/internal/workload"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestDefaultMatchesPaperReferenceSystem(t *testing.T) {
	s := Default()
	if s.Cores != 4 {
		t.Fatalf("cores %d, want 4", s.Cores)
	}
	if s.TotalL2Bytes() != 4*1024*1024 {
		t.Fatalf("total L2 %d, want 4MB", s.TotalL2Bytes())
	}
	if s.ThermalSampleCycles != 10000 {
		t.Fatal("power trace sampling should default to 10000 cycles as in the paper")
	}
	if s.Core.IssueWidth != 4 {
		t.Fatal("cores should be 4-wide")
	}
}

func TestWithTotalL2MB(t *testing.T) {
	for _, mb := range PaperCacheSizesMB() {
		s := Default().WithTotalL2MB(mb)
		if s.TotalL2Bytes() != uint64(mb)*1024*1024 {
			t.Errorf("WithTotalL2MB(%d) total %d", mb, s.TotalL2Bytes())
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%dMB config invalid: %v", mb, err)
		}
	}
}

func TestWithTechniqueAndBenchmark(t *testing.T) {
	s := Default().WithTechnique(Baseline()).WithBenchmark("FMM")
	if s.Technique.Kind != decay.KindAlwaysOn || s.Benchmark != "FMM" {
		t.Fatal("With* helpers did not apply")
	}
	// The original must be unchanged (value semantics).
	if Default().Benchmark == "FMM" {
		t.Fatal("Default mutated")
	}
}

func TestValidationCatchesErrors(t *testing.T) {
	mutations := map[string]func(*System){
		"zero cores":          func(s *System) { s.Cores = 0 },
		"too many cores":      func(s *System) { s.Cores = thermal.MaxCores + 1 },
		"bad issue width":     func(s *System) { s.Core.IssueWidth = 0 },
		"bad L2 geometry":     func(s *System) { s.L2.LineBytes = 48 },
		"line size mismatch":  func(s *System) { s.L2.LineBytes = 128 },
		"L1 larger than L2":   func(s *System) { s.L1.Cache.SizeBytes = 8 * 1024 * 1024 },
		"negative mshr":       func(s *System) { s.L2MSHREntries = -1 },
		"bad power":           func(s *System) { s.Power.ClockHz = 0 },
		"bad thermal":         func(s *System) { s.Thermal.LateralR = 0 },
		"zero sample":         func(s *System) { s.ThermalSampleCycles = 0 },
		"zero scale":          func(s *System) { s.WorkloadScale = 0 },
		"no workload":         func(s *System) { s.Benchmark = "" },
		"unknown benchmark":   func(s *System) { s.Benchmark = "nope" },
		"bad technique":       func(s *System) { s.Technique = decay.Spec{Kind: decay.KindDecay} },
		"invalid synthetic":   func(s *System) { s.Synthetic = &workload.SyntheticConfig{} },
		"bad L1 cache config": func(s *System) { s.L1.Cache.Assoc = 0 },
		"17-way L2":           func(s *System) { s.L2.Assoc, s.L2.SizeBytes = 17, 17*64*1024 },
		"32-way L1":           func(s *System) { s.L1.Cache.Assoc = 32 },
	}
	for name, mutate := range mutations {
		s := Default()
		mutate(&s)
		if s.Validate() == nil {
			t.Errorf("%s: validation should fail", name)
		}
	}
}

// One-byte lines pass every power-of-two check but leave the caches no
// tag value for an empty way; Validate reports the refusing cache by name.
func TestValidateRejectsOneByteLines(t *testing.T) {
	s := Default()
	s.L2.LineBytes = 1
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), `L2: cache "L2": line size 1`) {
		t.Fatalf("1-byte L2 lines: err %v, want the L2 cache's line-size error", err)
	}
}

func TestSyntheticWorkloadSelection(t *testing.T) {
	s := Default()
	syn := workload.DefaultSyntheticConfig()
	s.Synthetic = &syn
	if err := s.Validate(); err != nil {
		t.Fatalf("synthetic config invalid: %v", err)
	}
	g, err := s.Workload()
	if err != nil || g == nil {
		t.Fatalf("Workload(): %v", err)
	}
	if g.Name() != "synthetic" {
		t.Fatalf("workload name %q", g.Name())
	}
	if s.Label() == "" || s.benchmarkName() != "synthetic" {
		t.Fatal("label of synthetic config broken")
	}
}

func TestWorkloadByBenchmark(t *testing.T) {
	s := Default().WithBenchmark("mpeg2dec")
	g, err := s.Workload()
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "mpeg2dec" {
		t.Fatalf("workload name %q", g.Name())
	}
}

func TestLabel(t *testing.T) {
	s := Default().WithTotalL2MB(8).WithTechnique(decay.Spec{Kind: decay.KindSelectiveDecay, DecayCycles: 64 * 1024})
	want := "WATER-NS 8MB sel_decay64K"
	if s.Label() != want {
		t.Fatalf("label %q, want %q", s.Label(), want)
	}
}

func TestPaperSweepDefinitions(t *testing.T) {
	if len(PaperCacheSizesMB()) != 4 {
		t.Fatal("the paper sweeps four cache sizes")
	}
	if len(PaperDecayTimes()) != 3 {
		t.Fatal("the paper sweeps three decay times")
	}
	techs := PaperTechniques()
	if len(techs) != 7 {
		t.Fatalf("the figures contain 7 technique configurations, got %d", len(techs))
	}
	if techs[0].Kind != decay.KindProtocol {
		t.Fatal("the first configuration must be protocol")
	}
	names := map[string]bool{}
	for _, spec := range techs {
		names[spec.Name()] = true
	}
	for _, want := range []string{"protocol", "decay512K", "decay128K", "decay64K",
		"sel_decay512K", "sel_decay128K", "sel_decay64K"} {
		if !names[want] {
			t.Errorf("technique %s missing from the paper sweep", want)
		}
	}
	if Baseline().Kind != decay.KindAlwaysOn {
		t.Fatal("baseline must be always-on")
	}
}

func TestWithCoresPreservesTotalCapacity(t *testing.T) {
	base := Default().WithTotalL2MB(4) // 4 cores x 1 MB
	for _, cores := range []int{1, 2, 4, 8} {
		s := base.WithCores(cores)
		if s.Cores != cores {
			t.Fatalf("cores %d, want %d", s.Cores, cores)
		}
		if got := s.TotalL2Bytes(); got != 4*1024*1024 {
			t.Fatalf("%d cores: total L2 %d bytes, want 4 MB", cores, got)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%d cores: %v", cores, err)
		}
	}
	// The per-core split must follow WithTotalL2MB applied after the core
	// count change too (the scenario layer relies on either order working).
	a := Default().WithCores(8).WithTotalL2MB(2)
	b := Default().WithTotalL2MB(2).WithCores(8)
	if a.L2.SizeBytes != b.L2.SizeBytes || a.L2.SizeBytes != 2*1024*1024/8 {
		t.Fatalf("per-core split order-dependent: %d vs %d", a.L2.SizeBytes, b.L2.SizeBytes)
	}
}
