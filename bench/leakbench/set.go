package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// resultSet is one set's result file: every workload's untraced and traced
// outcome, with the host facts.
type resultSet struct {
	Host hostFacts `json:"host"`
	// ProbeBeforeNs and ProbeAfterNs time host.probe_ns's memory walk before the
	// first workload and after the last, in ns per step.
	ProbeBeforeNs  float64                `json:"probe_before_ns"`
	ProbeAfterNs   float64                `json:"probe_after_ns"`
	Seed           uint64                 `json:"seed"`
	Seconds        float64                `json:"seconds"`
	TracedSeconds  float64                `json:"traced_seconds"`
	Workloads      map[string]setWorkload `json:"workloads"`
	AllChecksPass  bool                   `json:"all_checks_pass"`
	SpansFile      string                 `json:"spans_file"`
	FailedCommands []string               `json:"failed_commands,omitempty"`
}

// setWorkload is one workload's pair of passes.
type setWorkload struct {
	Untraced     outcome `json:"untraced"`
	UntracedInfo runInfo `json:"untraced_info"`
	Traced       outcome `json:"traced"`
	TracedInfo   runInfo `json:"traced_info"`
	ErrorRate    float64 `json:"error_rate"`
}

// runSet runs every workload twice — untraced, then traced for half the
// time — each in a fresh child process of this binary, so each has its own
// peak RSS and a clean heap, and writes the set's result file.
func runSet(args []string) int {
	fs := flag.NewFlagSet("leakbench set", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "workload seed (the holdout seed is 2)")
	out := fs.String("out", "", "result file to write (required); spans go to FILE.spans.jsonl")
	seconds := fs.Float64("seconds", 8, "untraced timed phase per workload, in seconds")
	root := fs.String("root", ".", "repository root")
	work := fs.String("work", filepath.Join(".bench_build", "work"), "scratch directory")
	fs.Parse(args)
	if *out == "" || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: leakbench set -seed N -out FILE [-seconds S]")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "leakbench: %v\n", err)
		return 1
	}
	spans := *out + ".spans.jsonl"
	os.Remove(spans)

	set := resultSet{
		Host:          readHostFacts(),
		ProbeBeforeNs: probeNs(),
		Seed:          *seed,
		Seconds:       *seconds,
		TracedSeconds: *seconds / 2,
		Workloads:     map[string]setWorkload{},
		AllChecksPass: true,
		SpansFile:     spans,
	}
	for _, w := range workloadNames {
		var sw setWorkload
		for _, traced := range []bool{false, true} {
			secs, trace := *seconds, "0"
			if traced {
				secs, trace = set.TracedSeconds, "1"
			}
			childArgs := []string{"--workload", w, "--seed", strconv.FormatUint(*seed, 10),
				"--seconds", strconv.FormatFloat(secs, 'g', -1, 64), "--trace", trace,
				"--spans", spans, "--root", *root, "--work", *work}
			o, info, err := runChild(self, childArgs)
			if err != nil {
				fmt.Fprintf(os.Stderr, "leakbench: %s: %v\n", strings.Join(childArgs, " "), err)
				set.FailedCommands = append(set.FailedCommands, strings.Join(childArgs, " "))
			}
			if traced {
				sw.Traced, sw.TracedInfo = o, info
			} else {
				sw.Untraced, sw.UntracedInfo = o, info
			}
			set.AllChecksPass = set.AllChecksPass && err == nil && o.Correct
		}
		attempted := sw.Untraced.Attempted + sw.Traced.Attempted
		sw.ErrorRate = ratio(float64(sw.Untraced.Failed+sw.Traced.Failed), float64(attempted))
		set.Workloads[w] = sw
		fmt.Fprintf(os.Stderr, "leakbench: %s done (error rate %g)\n", w, sw.ErrorRate)
	}
	set.ProbeAfterNs = probeNs()

	data, err := json.MarshalIndent(set, "", "  ")
	if err == nil {
		err = os.WriteFile(*out, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "leakbench: %v\n", err)
		return 1
	}
	if !set.AllChecksPass {
		return 1
	}
	return 0
}

// runChild runs this binary on one workload and parses its last two lines:
// the run's description and its result.  Its standard error passes through.
func runChild(self string, args []string) (outcome, runInfo, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	var (
		o    outcome
		info runInfo
	)
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if len(lines) < 2 {
		if err == nil {
			err = fmt.Errorf("no result line")
		}
		return o, info, err
	}
	perr := json.Unmarshal(lines[len(lines)-2], &info)
	if perr == nil {
		perr = json.Unmarshal(lines[len(lines)-1], &o)
	}
	if perr != nil && err == nil {
		err = fmt.Errorf("parsing the result lines: %w", perr)
	}
	return o, info, err
}
