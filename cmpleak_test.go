package cmpleak

import (
	"context"
	"testing"
)

// testConfig returns a configuration small enough for unit tests.
func testConfig(tech TechniqueSpec) Config {
	cfg := DefaultConfig().
		WithBenchmark("mpeg2dec").
		WithTotalL2MB(1).
		WithTechnique(tech)
	cfg.WorkloadScale = 0.04
	return cfg
}

func TestDefaultConfigIsPaperSystem(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Cores != 4 {
		t.Fatalf("default cores %d, want 4", cfg.Cores)
	}
	if cfg.TotalL2Bytes() != 4*1024*1024 {
		t.Fatalf("default total L2 %d, want 4MB", cfg.TotalL2Bytes())
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTechniqueConstructors(t *testing.T) {
	if Baseline().Name() != "baseline" {
		t.Fatal("Baseline name wrong")
	}
	if Protocol().Name() != "protocol" {
		t.Fatal("Protocol name wrong")
	}
	if Decay(512*1024).Name() != "decay512K" {
		t.Fatal("Decay name wrong")
	}
	if SelectiveDecay(64*1024).Name() != "sel_decay64K" {
		t.Fatal("SelectiveDecay name wrong")
	}
	if AdaptiveDecay(128*1024).Name() != "adaptive128K" {
		t.Fatal("AdaptiveDecay name wrong")
	}
}

func TestPaperSweepDefinitions(t *testing.T) {
	if len(PaperTechniques()) != 7 {
		t.Fatal("the paper evaluates 7 technique configurations")
	}
	if len(PaperCacheSizesMB()) != 4 {
		t.Fatal("the paper evaluates 4 cache sizes")
	}
	if len(PaperBenchmarks()) != 6 {
		t.Fatal("the paper evaluates 6 benchmarks")
	}
}

func TestRunAndCompare(t *testing.T) {
	base, err := Run(testConfig(Baseline()))
	if err != nil {
		t.Fatal(err)
	}
	proto, err := Run(testConfig(Protocol()))
	if err != nil {
		t.Fatal(err)
	}
	cmp := Compare(proto, base)
	if cmp.EnergyReduction <= 0 {
		t.Fatalf("protocol should save energy, got %v", cmp.EnergyReduction)
	}
	if cmp.IPCLoss > 0.02 {
		t.Fatalf("protocol should not cost performance, IPC loss %v", cmp.IPCLoss)
	}
	if cmp.OccupationRate <= 0 || cmp.OccupationRate >= 1 {
		t.Fatalf("protocol occupation %v", cmp.OccupationRate)
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid configuration accepted")
	}
}

func TestRunSweepSmall(t *testing.T) {
	opts := DefaultSweepOptions(0.03)
	opts.Benchmarks = []string{"facerec"}
	opts.CacheSizesMB = []int{1}
	opts.Techniques = []TechniqueSpec{Protocol(), Decay(8 * 1024)}
	sweeps, err := RunSweeps(context.Background(), []NamedSweepOptions{{Options: opts}}, SweepParallelism{})
	if err != nil {
		t.Fatal(err)
	}
	sweep := sweeps[0]
	fig := sweep.Figure5a()
	if len(fig.Rows) != 2 {
		t.Fatalf("figure rows %d, want 2", len(fig.Rows))
	}
	if _, ok := sweep.Compare("facerec", 1, "decay8K"); !ok {
		t.Fatal("sweep comparison missing")
	}
}
