package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts of one (workload, metric) row.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictSame       = "same"
	verdictUnresolved = "unresolved"
)

// verdict compares a metric's values from the parent's runs (base) and the
// change's runs (next), paired by index, as the choosing-metrics guide asks:
//
//   - better: at least 10 pairs, the change wins at least 9 in 10 of them
//     (ties count for neither side), and the medians differ by more than the
//     parent's interquartile range;
//   - unresolved: otherwise, when the parent's spread (IQR over median) is
//     wider than the bound, so a regression within it could not be seen,
//     or unknown because the parent ran only once;
//   - worse: the change's median is worse than the parent's by more than the
//     bound, as a share of the parent's median;
//   - same: none of these.
func verdict(base, next []float64, bound float64, higherBetter bool) (v string, wins, pairs int) {
	pairs = min(len(base), len(next))
	for i := range pairs {
		if improvement(base[i], next[i], higherBetter) > 0 {
			wins++
		}
	}
	bMed, nMed := median(base), median(next)
	q1, q3 := quartiles(base)
	gain := improvement(bMed, nMed, higherBetter)
	switch {
	case pairs >= 10 && wins*10 >= 9*pairs && gain > q3-q1:
		return verdictBetter, wins, pairs
	case len(base) < 2 || spread(base) > bound:
		return verdictUnresolved, wins, pairs
	case bMed != 0 && -gain/math.Abs(bMed) > bound:
		return verdictWorse, wins, pairs
	}
	return verdictSame, wins, pairs
}

// improvement is how much better next is than base, in the metric's units.
func improvement(base, next float64, higherBetter bool) float64 {
	if higherBetter {
		return next - base
	}
	return base - next
}

// runCompare prints, for every workload and end-to-end metric, both sides'
// medians and quartiles, the change's wins out of the pairs, and a verdict;
// then the per-layer counts that differ.  Each directory holds result files
// written by `leakbench set`; they pair up in file-name order.  It exits 1
// when a row is worse or a count differs.
func runCompare(args []string) int {
	fs := flag.NewFlagSet("leakbench compare", flag.ExitOnError)
	bench := fs.String("benchmark", "BENCHMARK.json", "BENCHMARK.json with the metrics' bounds")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: leakbench compare [-benchmark BENCHMARK.json] BASE_DIR NEW_DIR")
		return 2
	}
	bad, err := compare(os.Stdout, *bench, fs.Arg(0), fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "leakbench compare: %v\n", err)
		return 1
	}
	if bad {
		return 1
	}
	return 0
}

// compare writes the comparison table and reports whether any row is worse
// or any count differs.
func compare(w io.Writer, benchPath, baseDir, newDir string) (bool, error) {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	base, err := loadSets(baseDir)
	if err != nil {
		return false, err
	}
	next, err := loadSets(newDir)
	if err != nil {
		return false, err
	}

	bad := false
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3]\tnew median [q1, q3]\twins\tverdict")
	for _, wl := range workloadsOf(base, next) {
		for _, m := range bf.EndToEnd {
			bv := values(base, wl, m.Name, false)
			nv := values(next, wl, m.Name, false)
			if len(bv) == 0 || len(nv) == 0 {
				continue
			}
			v, wins, pairs := verdict(bv, nv, m.Bound, m.Better == "higher")
			bad = bad || v == verdictWorse
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%d/%d\t%s\n", wl, m.Name, m.Unit,
				summary(bv), summary(nv), wins, pairs, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}

	// Simulated statistics are deterministic for a seed, so every file of
	// one seed, on either side, must hold the same counts.
	all := append(slices.Clone(base), next...)
	for _, wl := range workloadsOf(base, next) {
		for _, d := range perLayer {
			if d.Unit != "count" || strings.HasPrefix(d.Name, "runtime.") {
				continue
			}
			bySeed := map[uint64][]float64{}
			for _, s := range all {
				bySeed[s.Seed] = append(bySeed[s.Seed], values([]resultSet{s}, wl, d.Name, true)...)
			}
			for seed, vs := range bySeed {
				if len(vs) > 0 && slices.Min(vs) != slices.Max(vs) {
					bad = true
					fmt.Fprintf(w, "count differs: %s %s seed %d: %v\n", wl, d.Name, seed, vs)
				}
			}
		}
	}
	return bad, nil
}

// summary renders a median and its quartiles.
func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}

// loadSets reads every result file (*.json) in dir, in name order.
func loadSets(dir string) ([]resultSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var sets []resultSet
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var s resultSet
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		sets = append(sets, s)
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("%s holds no result files", dir)
	}
	return sets, nil
}

// workloadsOf lists the workloads both sides ran, in benchmark order.
func workloadsOf(a, b []resultSet) []string {
	var out []string
	for _, w := range workloadNames {
		if _, ok := a[0].Workloads[w]; !ok {
			continue
		}
		if _, ok := b[0].Workloads[w]; ok {
			out = append(out, w)
		}
	}
	return out
}

// values collects one metric of one workload across result files, from the
// traced pass when traced is set.
func values(sets []resultSet, workload, metric string, traced bool) []float64 {
	var out []float64
	for _, s := range sets {
		sw, ok := s.Workloads[workload]
		if !ok {
			continue
		}
		o := sw.Untraced
		if traced {
			o = sw.Traced
		}
		if v, ok := o.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
