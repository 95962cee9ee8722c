// Command cmpleaksim runs one configuration of the CMP leakage simulator and
// prints its metrics: execution time, IPC, L2 occupation rate, miss rate,
// AMAT, off-chip traffic, the energy breakdown and the technique activity.
//
// Examples:
//
//	cmpleaksim -benchmark WATER-NS -l2mb 4 -technique decay -decay 512K
//	cmpleaksim -benchmark mpeg2dec -l2mb 8 -technique protocol -baseline
//	cmpleaksim -benchmark facerec -technique sel_decay -decay 64K -scale 0.25
//	cmpleaksim -trace water.trc -technique sel_decay -decay 512K
//
// -trace replays a recorded binary trace file (see tracegen) through the
// full decay/coherence pipeline; the run is bit-for-bit identical to the
// live run the trace was recorded from.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cmpleak/internal/config"
	"cmpleak/internal/core"
	"cmpleak/internal/decay"
	"cmpleak/internal/trace"
)

func main() {
	var (
		benchmark = flag.String("benchmark", "WATER-NS", "benchmark name (WATER-NS, FMM, VOLREND, mpeg2enc, mpeg2dec, facerec)")
		traceFile = flag.String("trace", "", "replay this recorded trace file instead of a synthetic benchmark")
		l2MB      = flag.Int("l2mb", 4, "total L2 capacity in MB (split across 4 private caches)")
		technique = flag.String("technique", "decay", "leakage technique: baseline, protocol, decay, sel_decay, adaptive")
		decayStr  = flag.String("decay", "512K", "decay time in cycles (supports K/M suffixes)")
		scale     = flag.Float64("scale", 1.0, "workload scale factor")
		seed      = flag.Uint64("seed", 1, "workload seed")
		baseline  = flag.Bool("baseline", false, "also run the always-on baseline and print relative metrics")
		strict    = flag.Bool("strict-inclusion", false, "back-invalidate L1 on clean turn-offs (ablation)")
		noThermal = flag.Bool("no-thermal-feedback", false, "disable the leakage-temperature loop")
	)
	flag.Parse()

	spec, err := techniqueSpec(*technique, *decayStr)
	if err != nil {
		fatalf("%v", err)
	}
	spec.StrictInclusion = *strict

	cfg := config.Default().
		WithBenchmark(*benchmark).
		WithTotalL2MB(*l2MB).
		WithTechnique(spec)
	cfg.WorkloadScale = *scale
	cfg.Seed = *seed
	cfg.ThermalFeedback = !*noThermal

	if *traceFile != "" {
		// Replay mode: the trace header dictates the core count and the
		// "trace:" benchmark scheme feeds the recorded streams through the
		// normal workload path.  OpenShared verifies the file once and the
		// scheme resolver reuses the same parsed copy for the run itself.
		f, err := trace.OpenShared(*traceFile)
		if err != nil {
			fatalf("%v", err)
		}
		hdr := f.Header()
		fmt.Fprintf(os.Stderr, "cmpleaksim: replaying %s (benchmark=%s cores=%d scale=%g seed=%d)\n",
			*traceFile, hdr.Benchmark, hdr.Cores, hdr.Scale, hdr.Seed)
		cfg = cfg.WithBenchmark("trace:" + *traceFile)
		// Re-derive the per-core split from -l2mb under the recorded core
		// count: WithTotalL2MB divided by the default core count above.
		cfg.Cores = hdr.Cores
		cfg = cfg.WithTotalL2MB(*l2MB)
	}

	res, err := core.Run(cfg)
	if err != nil {
		fatalf("simulation failed: %v", err)
	}
	printResult(os.Stdout, res)

	if *baseline && spec.Name() != "baseline" {
		baseCfg := cfg.WithTechnique(config.Baseline())
		baseRes, err := core.Run(baseCfg)
		if err != nil {
			fatalf("baseline run failed: %v", err)
		}
		cmp := core.Compare(res, baseRes)
		fmt.Printf("\nRelative to always-on baseline:\n")
		fmt.Printf("  energy reduction    %7.2f%%\n", cmp.EnergyReduction*100)
		fmt.Printf("  IPC loss            %7.2f%%\n", cmp.IPCLoss*100)
		fmt.Printf("  AMAT increase       %7.2f%%\n", cmp.AMATIncrease*100)
		fmt.Printf("  bandwidth increase  %7.2f%%\n", cmp.BandwidthIncrease*100)
		fmt.Printf("  miss-rate delta     %7.4f\n", cmp.MissRateDelta)
	}
}

// techniqueSpec maps the -technique/-decay flag pair to a specification via
// the shared parser: decay-family names get the -decay interval appended.
func techniqueSpec(name, decayStr string) (decay.Spec, error) {
	switch name {
	case "decay", "sel_decay", "adaptive":
		return decay.ParseSpec(name + ":" + decayStr)
	default:
		return decay.ParseSpec(name)
	}
}

// printResult writes a run's metrics, energy breakdown and technique
// activity.  Energy terms print in exponent form: they span from the
// decay counters' microjoules to the whole run's joules, and a fixed
// number of decimals would show a small non-zero term as zero.
func printResult(w io.Writer, res core.Result) {
	fmt.Fprintf(w, "Configuration: %s\n", res.Label)
	fmt.Fprintf(w, "  cycles              %12d\n", res.Cycles)
	fmt.Fprintf(w, "  instructions        %12d\n", res.Instructions)
	fmt.Fprintf(w, "  aggregate IPC       %12.2f\n", res.IPC)
	fmt.Fprintf(w, "  L2 occupation rate  %12.2f%%\n", res.L2OccupationRate*100)
	fmt.Fprintf(w, "  L2 miss rate        %12.2f%%\n", res.L2MissRate*100)
	fmt.Fprintf(w, "  AMAT                %12.2f cycles\n", res.AMAT)
	fmt.Fprintf(w, "  off-chip traffic    %12d bytes\n", res.MemoryBytes)
	fmt.Fprintf(w, "  bus utilization     %12.2f%%\n", res.BusUtilization*100)
	fmt.Fprintf(w, "  max temperature     %12.1f C\n", res.MaxTempC)
	fmt.Fprintf(w, "Energy breakdown (J):\n")
	fmt.Fprintf(w, "  core dynamic        %12.4e\n", res.Energy.CoreDynamic)
	fmt.Fprintf(w, "  core leakage        %12.4e\n", res.Energy.CoreLeakage)
	fmt.Fprintf(w, "  L1 dynamic+leakage  %12.4e\n", res.Energy.L1Dynamic+res.Energy.L1Leakage)
	fmt.Fprintf(w, "  L2 dynamic          %12.4e\n", res.Energy.L2Dynamic)
	fmt.Fprintf(w, "  L2 leakage          %12.4e\n", res.Energy.L2Leakage)
	fmt.Fprintf(w, "  bus                 %12.4e\n", res.Energy.Bus)
	fmt.Fprintf(w, "  decay overhead      %12.4e\n", res.Energy.DecayOverhead)
	fmt.Fprintf(w, "  total               %12.4e\n", res.EnergyJ)
	fmt.Fprintf(w, "Technique activity:\n")
	fmt.Fprintf(w, "  turn-off requests   %12d\n", res.TurnOffRequests)
	fmt.Fprintf(w, "  turn-offs completed %12d\n", res.TurnOffsCompleted)
	fmt.Fprintf(w, "  turn-off writebacks %12d\n", res.TurnOffWritebacks)
	fmt.Fprintf(w, "  protocol invalidates%12d\n", res.ProtocolInvalidations)
	fmt.Fprintf(w, "  decay-induced misses%12d\n", res.DecayInducedMisses)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cmpleaksim: "+format+"\n", args...)
	os.Exit(1)
}
