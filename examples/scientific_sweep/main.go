// scientific_sweep studies the Splash-2-like scientific workloads across the
// paper's cache sizes (1-8 MB): it shows how the energy saved by every
// technique grows with the cache (because the L2 leakage share grows) while
// the performance cost stays roughly constant — and why decay-based
// techniques hurt scientific codes more than multimedia ones.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"cmpleak"
)

func main() {
	scale := flag.Float64("scale", 0.2, "workload scale factor")
	flag.Parse()

	opts := cmpleak.DefaultSweepOptions(*scale)
	opts.Benchmarks = []string{"WATER-NS", "FMM", "VOLREND"}
	opts.Techniques = []cmpleak.TechniqueSpec{
		cmpleak.Protocol(),
		cmpleak.Decay(512 * 1024),
		cmpleak.Decay(64 * 1024),
		cmpleak.SelectiveDecay(64 * 1024),
	}

	fmt.Printf("Sweeping %v over %v MB...\n", opts.Benchmarks, opts.CacheSizesMB)
	sweeps, err := cmpleak.RunSweeps(context.Background(),
		[]cmpleak.NamedSweepOptions{{Options: opts}}, cmpleak.SweepParallelism{})
	if err != nil {
		log.Fatal(err)
	}
	sweep := sweeps[0]

	fmt.Println()
	fmt.Println(sweep.Figure3a().Markdown()) // occupation
	fmt.Println(sweep.Figure5a().Markdown()) // energy reduction
	fmt.Println(sweep.Figure5b().Markdown()) // IPC loss

	// The decay-time sensitivity the paper highlights: energy barely moves,
	// IPC loss moves a lot.
	fmt.Println("Decay-time sensitivity at 4 MB (scientific average):")
	for _, tech := range []string{"decay512K", "decay64K", "sel_decay64K"} {
		var eSum, iSum float64
		n := 0
		for _, bench := range opts.Benchmarks {
			if cmp, ok := sweep.Compare(bench, 4, tech); ok {
				eSum += cmp.EnergyReduction
				iSum += cmp.IPCLoss
				n++
			}
		}
		if n > 0 {
			fmt.Printf("  %-13s energy %6.1f%%   IPC loss %6.1f%%\n", tech, eSum/float64(n)*100, iSum/float64(n)*100)
		}
	}
}
