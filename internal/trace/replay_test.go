package trace_test

// Replay equivalence: a simulation driven from a recorded trace file must be
// bit-for-bit identical to the same simulation driven from the live
// generator.  This is the property the whole subsystem exists for — it also
// re-verifies the cpu.Core batch refill path end to end, since the trace
// reader delivers batches with different fill boundaries (chunk-limited)
// than the live phased generator.

import (
	"path/filepath"
	"reflect"
	"testing"

	"cmpleak/internal/config"
	"cmpleak/internal/core"
	"cmpleak/internal/decay"
	"cmpleak/internal/trace"
	"cmpleak/internal/workload"
)

func TestReplayMatchesLiveRun(t *testing.T) {
	const (
		bench = "WATER-NS"
		scale = 0.02
		seed  = 7
		cores = 4
	)
	path := filepath.Join(t.TempDir(), "water.trc")
	gen, err := workload.ByName(bench, scale)
	if err != nil {
		t.Fatal(err)
	}
	w, closeTrace, err := trace.Create(path, trace.Header{
		Cores: cores, LineBytes: 64, Seed: seed, Scale: scale, Benchmark: bench,
	}, trace.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Capture(gen, cores, seed, w, trace.CaptureOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := closeTrace(); err != nil {
		t.Fatal(err)
	}

	run := func(benchName string) core.Result {
		t.Helper()
		cfg := config.Default().
			WithBenchmark(benchName).
			WithTotalL2MB(1).
			WithTechnique(decay.Spec{Kind: decay.KindSelectiveDecay, DecayCycles: 8 * 1024})
		cfg.WorkloadScale = scale
		cfg.Seed = seed
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	live := run(bench)
	replay := run("trace:" + path)

	// The identity strings name the configured benchmark ("trace:<path>" vs
	// "WATER-NS"); every measured field must match exactly.
	if replay.Benchmark == live.Benchmark || replay.Label == live.Label {
		t.Fatalf("replay run did not go through the trace scheme (label %q)", replay.Label)
	}
	replay.Label, replay.Benchmark = live.Label, live.Benchmark
	if !reflect.DeepEqual(live, replay) {
		t.Fatalf("trace replay diverged from the live run:\n  live:   %+v\n  replay: %+v", live, replay)
	}
}
