package experiment

// Sweep wall-clock benchmarks: BenchmarkSweepSerial vs BenchmarkSweepParallel
// measure the same reduced-scale matrix through one worker and through
// GOMAXPROCS workers — the speedup the in-process pool buys on this box.
// One op is one full sweep; jobs/sec is reported as a custom metric so
// `make bench-sweep` reads directly as sweep throughput.  CMPLEAK_BENCH_SCALE scales the workloads (default
// 0.005, matching the Makefile's bench smoke).

import (
	"os"
	"runtime"
	"strconv"
	"testing"

	"cmpleak/internal/decay"
)

// benchSweepScale mirrors the root package's CMPLEAK_BENCH_SCALE hook.
func benchSweepScale() float64 {
	if v := os.Getenv("CMPLEAK_BENCH_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.005
}

// benchSweepOptions is a two-group slice of the paper matrix — enough jobs
// (2 groups x 8 runs = 16) to keep a multi-core box busy, small enough to
// iterate.
func benchSweepOptions() Options {
	opts := DefaultOptions(benchSweepScale())
	opts.Benchmarks = []string{"WATER-NS", "mpeg2dec"}
	opts.CacheSizesMB = []int{1}
	opts.Techniques = []decay.Spec{
		{Kind: decay.KindProtocol},
		{Kind: decay.KindDecay, DecayCycles: 32 * 1024},
		{Kind: decay.KindDecay, DecayCycles: 8 * 1024},
		{Kind: decay.KindSelectiveDecay, DecayCycles: 32 * 1024},
		{Kind: decay.KindSelectiveDecay, DecayCycles: 8 * 1024},
		{Kind: decay.KindAdaptive, DecayCycles: 8 * 1024},
	}
	opts.Seed = 7
	return opts
}

func benchSweep(b *testing.B, workers int) {
	opts := benchSweepOptions()
	jobs := len(opts.Jobs())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runSweep(opts, Parallelism{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(jobs*b.N)/b.Elapsed().Seconds(), "jobs/sec")
}

func BenchmarkSweepSerial(b *testing.B)   { benchSweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, runtime.GOMAXPROCS(0)) }
