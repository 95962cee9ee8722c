package experiment

// Determinism regression tests: the engine contract promises bit-for-bit
// identical results for a fixed seed, and the timing-wheel scheduler must
// honour the same-cycle FIFO tie-break the heap engine established.  Any
// ordering bug in the wheel (bucket order, far-heap migration, recurring
// refire position) shows up here as a diverging float or counter.

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cmpleak/internal/config"
	"cmpleak/internal/core"
	"cmpleak/internal/decay"
	"cmpleak/internal/workload"
)

// determinismOptions is a reduced-scale slice of the paper sweep that still
// exercises every scheduler path: cache hops, bus contention, decay global
// ticks (near and far horizon), and the thermal sampler.
func determinismOptions() Options {
	opts := DefaultOptions(0.01)
	opts.Benchmarks = []string{"WATER-NS", "mpeg2dec"}
	opts.CacheSizesMB = []int{1}
	opts.Techniques = []decay.Spec{
		{Kind: decay.KindProtocol},
		{Kind: decay.KindDecay, DecayCycles: 8 * 1024},
		{Kind: decay.KindSelectiveDecay, DecayCycles: 8 * 1024},
	}
	opts.Seed = 7
	return opts
}

func TestSweepRunsAreBitForBitIdentical(t *testing.T) {
	opts := determinismOptions()
	first, err := runSweep(opts, Parallelism{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := runSweep(opts, Parallelism{})
	if err != nil {
		t.Fatal(err)
	}
	keys := first.Keys()
	if len(keys) == 0 {
		t.Fatal("sweep produced no results")
	}
	if got := second.Keys(); !reflect.DeepEqual(keys, got) {
		t.Fatalf("runs produced different key sets: %v vs %v", keys, got)
	}
	for _, k := range keys {
		r1, _ := first.Result(k.Benchmark, k.SizeMB, k.Technique)
		r2, _ := second.Result(k.Benchmark, k.SizeMB, k.Technique)
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("%s: results differ between identical runs:\n  first:  %+v\n  second: %+v", k, r1, r2)
		}
	}
}

func TestSystemRunDeterminism(t *testing.T) {
	// Below the sweep layer: two fresh systems with the same configuration
	// must execute the exact same number of events and produce identical
	// results, guarding Engine.Executed (and therefore event order) itself.
	for _, spec := range []decay.Spec{
		{Kind: decay.KindAlwaysOn},
		{Kind: decay.KindDecay, DecayCycles: 8 * 1024},
		{Kind: decay.KindAdaptive, DecayCycles: 8 * 1024},
	} {
		spec := spec
		t.Run(spec.Name(), func(t *testing.T) {
			run := func() (core.Result, uint64) {
				cfg := config.Default().WithBenchmark("FMM").WithTotalL2MB(1).WithTechnique(spec)
				cfg.WorkloadScale = 0.01
				cfg.Seed = 42
				s, err := core.NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res, s.Engine().Executed
			}
			r1, e1 := run()
			r2, e2 := run()
			if e1 != e2 {
				t.Fatalf("Engine.Executed differs between identical runs: %d vs %d", e1, e2)
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Fatalf("results differ between identical runs:\n  first:  %+v\n  second: %+v", r1, r2)
			}
		})
	}
}

func TestRunCancelsRemainingJobsOnError(t *testing.T) {
	defer func(old func(*core.System, config.System, workload.Generator) (core.Result, error)) { runJob = old }(runJob)

	var mu sync.Mutex
	calls := 0
	runJob = func(*core.System, config.System, workload.Generator) (core.Result, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			return core.Result{}, errors.New("injected failure")
		}
		return core.Result{Label: fmt.Sprintf("run-%d", n)}, nil
	}

	opts := DefaultOptions(0.01) // full matrix: 6 benchmarks x 4 sizes x 8 runs
	const workers = 2
	_, err := runSweep(opts, Parallelism{Workers: workers})
	if err == nil {
		t.Fatal("sweep returned nil error despite a failing job")
	}
	total := len(opts.Benchmarks) * len(opts.CacheSizesMB) * (len(opts.Techniques) + 1)
	mu.Lock()
	n := calls
	mu.Unlock()
	// Only jobs already in flight when the failure hit may still run: that
	// is bounded by the worker count, not the sweep size.
	if n > workers+1 {
		t.Fatalf("%d of %d jobs simulated after the first failure; want at most %d in-flight",
			n, total, workers+1)
	}
}
