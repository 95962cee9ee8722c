// Command leakcalib measures simulation throughput: it replays a recorded
// binary trace (see tracegen) through the full decay/coherence/power
// pipeline and reports sim_cycles/sec, events/sec and the engine's
// far-event ratio — the calibration numbers that size full-paper-scale
// sweeps.  Replay takes workload generation off the critical path (trace
// decode sustains ~100 M entries/s), so what leakcalib times is the
// simulator itself.
//
// Examples:
//
//	tracegen -benchmark WATER-NS -scale 0.5 -o water05.trc
//	leakcalib -trace water05.trc
//	leakcalib -trace water05.trc -technique sel_decay:64K -l2mb 8 -best 5
//	leakcalib -trace water05.trc -sweep-jobs 8   # aggregate pool throughput
//
// With -best N (default 3) every run is timed separately and both the best
// and the median run are summarised — the ROADMAP's
// "best-of-N on a noisy box" calibration protocol: the first run pays the
// page-cache and verify cost of the trace file, the best run is the
// steady-state number capacity planning needs, and the median quantifies
// how noisy the box was.  The far-event ratio (FarEvents/Executed) reports
// how often the timing wheel overflowed to the far heap — it should stay
// ~1e-4; a jump means the wheel is undersized for the configuration.
//
// -sweep-jobs N additionally runs the trace through the paper's full
// technique set (baseline + seven configurations, one cell each) on the
// in-process worker pool with N workers and reports aggregate sweep
// throughput — cells/sec and summed sim_cycles/sec — alongside the
// single-engine numbers, i.e. what one leaksweep invocation actually
// sustains on this box.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"cmpleak"
	"cmpleak/internal/core"
	"cmpleak/internal/trace"
)

func main() {
	var (
		traceFile  = flag.String("trace", "", "recorded trace file to replay (required)")
		technique  = flag.String("technique", "decay:512K", "technique spec (baseline, protocol, decay:512K, sel_decay:64K, adaptive:128K)")
		l2MB       = flag.Int("l2mb", 4, "total L2 capacity in MB")
		best       = flag.Int("best", 3, "timed replay runs; best and median are reported")
		sweepJobs  = flag.Int("sweep-jobs", 0, "also run the paper technique set through the worker pool with N workers and report aggregate throughput (0 = skip)")
		noThermal  = flag.Bool("no-thermal-feedback", false, "disable the leakage-temperature loop")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the timed runs to this file")
		memProfile = flag.String("memprofile", "", "write a post-run heap profile to this file")
	)
	flag.Parse()

	if *traceFile == "" {
		fatalf("-trace is required (record one with tracegen)")
	}
	repeats := *best
	if repeats < 1 {
		fatalf("-best must be at least 1")
	}
	spec, err := cmpleak.ParseTechnique(*technique)
	if err != nil {
		fatalf("invalid -technique: %v", err)
	}

	f, err := trace.OpenShared(*traceFile)
	if err != nil {
		fatalf("%v", err)
	}
	hdr := f.Header()
	var entries uint64
	for _, n := range f.EntryCounts() {
		entries += n
	}
	fmt.Printf("leakcalib: %s (benchmark=%s cores=%d scale=%g seed=%d, %d entries)\n",
		*traceFile, hdr.Benchmark, hdr.Cores, hdr.Scale, hdr.Seed, entries)

	cfg := cmpleak.DefaultConfig().
		WithBenchmark("trace:" + *traceFile).
		WithTechnique(spec)
	cfg.Cores = hdr.Cores
	cfg = cfg.WithTotalL2MB(*l2MB)
	cfg.ThermalFeedback = !*noThermal

	// The profiles cover exactly the timed replay runs, so a ROADMAP claim
	// like "dispatch is N% of a decay run" is one command to reproduce:
	//
	//	leakcalib -trace water.trc -cpuprofile cpu.pprof
	//	go tool pprof -top cpu.pprof
	if *cpuProfile != "" {
		pf, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("%v", err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	type sample struct {
		wall         time.Duration
		cycles       uint64
		executed     uint64
		far          uint64
		cyclesPerSec float64
		eventsPerSec float64
	}
	var samples []sample
	for i := 0; i < repeats; i++ {
		s, err := core.NewSystem(cfg)
		if err != nil {
			fatalf("%v", err)
		}
		start := time.Now()
		res, err := s.Run()
		wall := time.Since(start)
		if err != nil {
			fatalf("replay failed: %v", err)
		}
		eng := s.Engine()
		smp := sample{
			wall:     wall,
			cycles:   uint64(res.Cycles),
			executed: eng.Executed,
			far:      eng.FarEvents,
		}
		secs := wall.Seconds()
		smp.cyclesPerSec = float64(smp.cycles) / secs
		smp.eventsPerSec = float64(smp.executed) / secs
		fmt.Printf("run %d: sim_cycles=%d wall=%s sim_cycles/sec=%.3g events=%d (near=%d far=%d) events/sec=%.3g far_ratio=%.2g\n",
			i+1, smp.cycles, wall.Round(time.Millisecond), smp.cyclesPerSec,
			smp.executed, smp.executed-smp.far, smp.far, smp.eventsPerSec, ratio(smp.far, smp.executed))
		samples = append(samples, smp)
	}
	// Best-of-N plus the median: best is the steady-state capacity number,
	// median shows how noisy the box was (the ROADMAP protocol).
	byRate := append([]sample(nil), samples...)
	sort.Slice(byRate, func(i, j int) bool { return byRate[i].cyclesPerSec < byRate[j].cyclesPerSec })
	bestRun := byRate[len(byRate)-1]
	median := byRate[(len(byRate)-1)/2]
	fmt.Printf("best (of %d): sim_cycles/sec=%.4g  events/sec=%.4g  entries/sec=%.4g  near/far=%d/%d (far ratio %.2g)  (%s %s, %d MB L2, %d cores)\n",
		repeats, bestRun.cyclesPerSec, bestRun.eventsPerSec, float64(entries)/bestRun.wall.Seconds(),
		bestRun.executed-bestRun.far, bestRun.far, ratio(bestRun.far, bestRun.executed),
		hdr.Benchmark, spec.Name(), *l2MB, hdr.Cores)
	fmt.Printf("median:       sim_cycles/sec=%.4g  events/sec=%.4g  entries/sec=%.4g  wall=%s\n",
		median.cyclesPerSec, median.eventsPerSec, float64(entries)/median.wall.Seconds(),
		median.wall.Round(time.Millisecond))

	if *sweepJobs > 0 {
		sweepThroughput(*traceFile, *l2MB, hdr.Cores, !*noThermal, *sweepJobs, bestRun.cyclesPerSec)
	}

	if *memProfile != "" {
		pf, err := os.Create(*memProfile)
		if err != nil {
			fatalf("%v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(pf); err != nil {
			fatalf("memprofile: %v", err)
		}
		pf.Close()
	}
}

// sweepThroughput runs the trace through the paper's technique set
// (baseline + seven configurations = 8 cells) on the in-process worker pool
// and reports aggregate sweep throughput: cells/sec and summed
// sim_cycles/sec across all workers, i.e. what one leaksweep invocation
// sustains on this box.  bestSingle lets the summary relate the aggregate
// to the best single-engine rate measured above.
func sweepThroughput(traceFile string, l2MB, cores int, thermal bool, workers int, bestSingle float64) {
	base := cmpleak.DefaultConfig().WithCores(cores)
	base.ThermalFeedback = thermal
	opts := cmpleak.SweepOptions{
		Base:         base,
		Benchmarks:   []string{"trace:" + traceFile},
		CacheSizesMB: []int{l2MB},
		Techniques:   cmpleak.PaperTechniques(),
		Scale:        1, // traces replay at their recorded length
		Seed:         1,
	}
	cells := opts.NumJobs()
	fmt.Printf("sweep: %d cells (baseline + %d techniques) through %d worker(s)...\n",
		cells, len(opts.Techniques), workers)
	// ^C cancels the calibration sweep cleanly instead of leaving a partial
	// line: in-flight cells finish, then the pool reports the interruption.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	sweeps, err := cmpleak.RunSweeps(ctx, []cmpleak.NamedSweepOptions{{Options: opts}}, cmpleak.SweepParallelism{Workers: workers})
	if err != nil {
		fatalf("sweep: %v", err)
	}
	sweep := sweeps[0]
	wall := time.Since(start)
	var simCycles uint64
	for _, k := range sweep.Keys() {
		r, _ := sweep.Result(k.Benchmark, k.SizeMB, k.Technique)
		simCycles += uint64(r.Cycles)
	}
	secs := wall.Seconds()
	agg := float64(simCycles) / secs
	fmt.Printf("sweep: %d cells in %s = %.3g cells/sec, summed sim_cycles=%.4g (%.4g sim_cycles/sec aggregate, %.2fx best single engine)\n",
		cells, wall.Round(time.Millisecond), float64(cells)/secs, float64(simCycles), agg, agg/bestSingle)
}

func ratio(far, executed uint64) float64 {
	if executed == 0 {
		return 0
	}
	return float64(far) / float64(executed)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "leakcalib: "+format+"\n", args...)
	os.Exit(1)
}
