// protocol_vs_decay reproduces the paper's headline comparison (abstract and
// Section VII): for the 4 MB CMP, how much energy do Protocol, Decay and
// Selective Decay save, and at what performance cost, averaged over all six
// benchmarks.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"cmpleak"
)

func main() {
	scale := flag.Float64("scale", 0.25, "workload scale factor (1.0 = full synthetic workloads)")
	sizeMB := flag.Int("l2mb", 4, "total L2 capacity in MB")
	flag.Parse()

	// The three technique families of the paper, each at the 512K decay
	// time (the paper's Energy-Delay recommendation).
	techniques := []cmpleak.TechniqueSpec{
		cmpleak.Protocol(),
		cmpleak.Decay(512 * 1024),
		cmpleak.SelectiveDecay(512 * 1024),
	}

	opts := cmpleak.DefaultSweepOptions(*scale)
	opts.CacheSizesMB = []int{*sizeMB}
	opts.Techniques = techniques

	fmt.Printf("Running %d benchmarks x %d techniques (+baselines) at %d MB...\n",
		len(opts.Benchmarks), len(techniques), *sizeMB)
	sweeps, err := cmpleak.RunSweeps(context.Background(),
		[]cmpleak.NamedSweepOptions{{Options: opts}}, cmpleak.SweepParallelism{})
	if err != nil {
		log.Fatal(err)
	}
	sweep := sweeps[0]

	fmt.Println()
	fmt.Println(sweep.HeadlineAt(*sizeMB).String())
	fmt.Println("Per-benchmark energy reduction:")
	fmt.Println(sweep.Figure6a(*sizeMB).Markdown())
	fmt.Println("Per-benchmark IPC loss:")
	fmt.Println(sweep.Figure6b(*sizeMB).Markdown())

	fmt.Println("Paper reference for 4 MB (abstract): protocol 13%/0%, decay 30%/8%, selective decay 21%/2%")
	fmt.Println("(energy reduction / IPC loss; this reproduction matches the ordering and rough factors,")
	fmt.Println(" not the absolute values — see EXPERIMENTS.md)")
}
