// Command leakbench is cmpleak's end-to-end benchmark.  It imports the
// module's packages and times calls into their public functions from
// outside — trace capture and replay, system construction and runs, scenario
// expansion, the sweep pool, the result cache and the leakserved HTTP
// service — on four workloads, checks every output, and prints each metric
// by name with its unit.  bench/README.md describes the metrics, the
// workloads and the noise protocol.
//
// Run one workload; the last line of standard output is the result as JSON
// (end-to-end metrics with -trace 0, per-layer metrics with -trace 1):
//
//	bash bench/run.sh --workload replay-baseline --seed 1 --seconds 25 --trace 0
//
// Run a set — every workload untraced and traced, each in a fresh process —
// into a result file, and compare two directories of result files:
//
//	bash bench/run.sh set -seed 1 -out bench/results/new.json
//	bash bench/run.sh compare BASE_DIR NEW_DIR
//
// -smoke shrinks every workload to a few seconds in total, as the tests do.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "set":
			os.Exit(runSet(os.Args[2:]))
		case "compare":
			os.Exit(runCompare(os.Args[2:]))
		}
	}
	os.Exit(runOne(os.Args[1:]))
}

// runOne runs one workload and prints its result line.
func runOne(args []string) int {
	fs := flag.NewFlagSet("leakbench", flag.ExitOnError)
	var (
		cfg   runConfig
		trace int
		smoke bool
	)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed (the holdout seed is 2)")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced pass: CPU profile and spans, per-layer metrics")
	fs.StringVar(&cfg.root, "root", ".", "repository root")
	fs.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "work"), "scratch directory")
	fs.StringVar(&cfg.spans, "spans", "", "append the traced pass's spans to this JSON-lines file")
	fs.BoolVar(&smoke, "smoke", false, "tiny inputs, for tests")
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "leakbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "leakbench: -trace must be 0 or 1\n")
		return 2
	}
	cfg.trace = trace == 1
	cfg.sizes = fullSizes
	if smoke {
		cfg.sizes = smokeSizes
	}

	out, info, errs, err := runInScratch(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "leakbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "leakbench: %s: check failed: %v\n", cfg.workload, e)
	}
	infoLine, err := json.Marshal(info)
	if err != nil {
		fmt.Fprintf(os.Stderr, "leakbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "leakbench: %v\n", err)
		return 1
	}
	fmt.Println(string(infoLine))
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// runInScratch runs cfg in a fresh directory under cfg.work and removes it
// afterwards.
func runInScratch(cfg runConfig) (outcome, runInfo, []error, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return outcome{}, runInfo{}, nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, cfg.workload+"-")
	if err != nil {
		return outcome{}, runInfo{}, nil, err
	}
	defer os.RemoveAll(dir)
	cfg.work = dir
	return run(cfg)
}
