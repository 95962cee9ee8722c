package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// steady returns n values around v with a ±1% wobble.
func steady(v float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = v * (1 + 0.01*float64(i%3-1))
	}
	return xs
}

func TestVerdict(t *testing.T) {
	wide := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	for _, tc := range []struct {
		name         string
		base, next   []float64
		higherBetter bool
		want         string
	}{
		{"faster on every pair, lower is better", steady(100, 10), steady(80, 10), false, verdictBetter},
		{"faster on every pair, higher is better", steady(100, 10), steady(120, 10), true, verdictBetter},
		{"same numbers", steady(100, 10), steady(100, 10), false, verdictSame},
		{"within the bound", steady(100, 10), steady(105, 10), false, verdictSame},
		{"slower beyond the bound", steady(100, 10), steady(115, 10), false, verdictWorse},
		{"lower throughput beyond the bound", steady(100, 10), steady(85, 10), true, verdictWorse},
		{"too few pairs to claim a gain", steady(100, 9), steady(80, 9), false, verdictSame},
		{"one run per side: the parent's spread is unknown", []float64{100}, []float64{130}, false, verdictUnresolved},
		{"three runs per side, worse", steady(100, 3), steady(130, 3), false, verdictWorse},
		{"spread wider than the bound", wide, steady(100, 10), false, verdictUnresolved},
		{"spread wider than the bound hides a regression", wide, steady(130, 10), false, verdictUnresolved},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, _, _ := verdict(tc.base, tc.next, 0.1, tc.higherBetter)
			if got != tc.want {
				t.Errorf("verdict = %s, want %s", got, tc.want)
			}
		})
	}
}

func TestVerdictNeedsNineWinsInTen(t *testing.T) {
	base := steady(100, 10)
	next := steady(80, 10)
	next[0], next[1] = 200, 200 // two losses: 8 of 10 wins
	if got, wins, pairs := verdict(base, next, 0.1, false); got == verdictBetter || wins != 8 || pairs != 10 {
		t.Errorf("verdict = %s with %d/%d wins, want no gain claimed at 8/10", got, wins, pairs)
	}
	next[1] = 80 // 9 of 10
	if got, _, _ := verdict(base, next, 0.1, false); got != verdictBetter {
		t.Errorf("verdict = %s at 9/10 wins, want better", got)
	}
}

// writeSet writes one result file holding a single workload.
func writeSet(t *testing.T, dir, name string, seed uint64, latency, events float64) {
	t.Helper()
	set := resultSet{Seed: seed, Workloads: map[string]setWorkload{
		"replay-baseline": {
			Untraced: outcome{Correct: true, Metrics: map[string]valued{"latency_p50_ms": {latency, "ms"}}},
			Traced:   outcome{Correct: true, Metrics: map[string]valued{"sim.events": {events, "count"}}},
		},
	}}
	data, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareDirectories(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[{"name":"latency_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base, same, slow, drift := filepath.Join(dir, "base"), filepath.Join(dir, "same"), filepath.Join(dir, "slow"), filepath.Join(dir, "drift")
	for _, d := range []string{base, same, slow, drift} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i, name := range []string{"a.json", "b.json", "c.json"} {
		wobble := float64(i) // 100, 101, 102 ms: a 1% spread
		writeSet(t, base, name, 1, 100+wobble, 5000)
		writeSet(t, same, name, 1, 101+wobble, 5000)
		writeSet(t, slow, name, 1, 130+wobble, 5000)
		writeSet(t, drift, name, 1, 100+wobble, 5000+wobble)
	}

	for _, tc := range []struct {
		dir     string
		bad     bool
		contain string
	}{
		{same, false, "same"},
		{slow, true, "worse"},
		{drift, true, "count differs: replay-baseline sim.events seed 1"},
	} {
		var out bytes.Buffer
		bad, err := compare(&out, bench, base, tc.dir)
		if err != nil {
			t.Fatal(err)
		}
		if bad != tc.bad || !strings.Contains(out.String(), tc.contain) {
			t.Errorf("compare base %s: bad=%v, output:\n%s", filepath.Base(tc.dir), bad, out.String())
		}
	}
}
