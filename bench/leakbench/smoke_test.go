package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// repoRoot is the repository root as seen from this package's directory.
const repoRoot = "../.."

func smokeConfig(t *testing.T, workload string, traced bool) runConfig {
	sz := smokeSizes
	if raceEnabled {
		// The race detector slows the simulator several times over.
		sz.maxOps, sz.serviceRound, sz.setupReps = 3, 2, 1
	}
	return runConfig{
		workload: workload,
		seed:     1,
		seconds:  0.2,
		trace:    traced,
		root:     repoRoot,
		work:     t.TempDir(),
		sizes:    sz,
	}
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, with
// every output check, and checks the shape of the results.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			if raceEnabled && traced && w != "service-warm" {
				continue // the profiler adds nothing to the race check
			}
			name := w
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := smokeConfig(t, w, traced)
				cfg.spans = filepath.Join(cfg.work, "spans.jsonl")
				out, info, errs, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || len(errs) != 0 {
					t.Fatalf("checks failed: %+v %v", out, errs)
				}
				if out.Attempted != info.Ops+info.Checks || info.Checks == 0 {
					t.Errorf("attempted %d, want ops %d + checks %d", out.Attempted, info.Ops, info.Checks)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(out.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(out.Metrics), len(defs))
				}
				shares := 0.0
				for _, d := range defs {
					v, ok := out.Metrics[d.Name]
					switch {
					case !ok || v.Unit != d.Unit:
						t.Errorf("metric %s = %+v, want unit %s", d.Name, v, d.Unit)
					case !traced && v.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v.Value)
					}
					if strings.HasSuffix(d.Name, ".cpu_share") {
						shares += v.Value
					}
				}
				if traced {
					// A tiny run may take no profile samples at all.
					if shares != 0 && math.Abs(shares-1) > 0.02 {
						t.Errorf("CPU shares sum to %v", shares)
					}
					data, err := os.ReadFile(cfg.spans)
					if err != nil || !bytes.Contains(data, []byte(`"workload":"`+w+`"`)) {
						t.Errorf("spans file: %v, %d bytes", err, len(data))
					}
				}
			})
		}
	}
}

// TestChecksCatchMismatches breaks each workload's reference output after a
// real run and expects the checks to fail.
func TestChecksCatchMismatches(t *testing.T) {
	deadline := func() time.Time { return time.Now().Add(50 * time.Millisecond) }

	t.Run("replay differs from live run", func(t *testing.T) {
		r := newReplay(smokeConfig(t, "replay-baseline", false), "baseline", 4)
		if err := r.setup(); err != nil {
			t.Fatal(err)
		}
		if _, err := measure(r, deadline(), 1, nil, nil); err != nil {
			t.Fatal(err)
		}
		r.cfg.seed++ // the live reference now generates other streams
		if _, errs := r.verify(); len(errs) != 1 {
			t.Fatalf("verify errors = %v, want one", errs)
		}
	})

	t.Run("replay differs across reps", func(t *testing.T) {
		r := newReplay(smokeConfig(t, "replay-decay", false), "decay:64K", 8)
		if err := r.setup(); err != nil {
			t.Fatal(err)
		}
		r.first = []byte("{}")
		ph, err := measure(r, deadline(), 2, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ph.failed != ph.ops() {
			t.Fatalf("%d of %d replays failed, want all", ph.failed, ph.ops())
		}
	})

	t.Run("sweep digest and warm rerun", func(t *testing.T) {
		s := newSweep(smokeConfig(t, "sweep-cold", false))
		if err := s.setup(); err != nil {
			t.Fatal(err)
		}
		s.digest = "not-a-digest"
		ph, err := measure(s, deadline(), 1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ph.failed != 1 {
			t.Fatalf("%d sweeps failed, want 1", ph.failed)
		}
		if _, errs := s.verify(); len(errs) != 1 {
			t.Fatalf("warm rerun errors = %v, want one", errs)
		}
	})

	t.Run("service report and digests", func(t *testing.T) {
		s := newService(smokeConfig(t, "service-warm", false))
		if err := s.setup(); err != nil {
			t.Fatal(err)
		}
		defer s.close()
		good := s.report
		s.report = append(slices.Clone(good), '\n')
		ph, err := measure(s, deadline(), 2, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ph.failed != ph.ops() {
			t.Fatalf("%d of %d requests failed, want all", ph.failed, ph.ops())
		}
		if _, errs := s.verify(); len(errs) != 1 {
			t.Fatalf("in-process comparison errors = %v, want one", errs)
		}
		s.report = good
		s.digests = []string{"not-a-digest"}
		if ph, err = measure(s, deadline(), 1, nil, nil); err != nil || ph.failed != 1 {
			t.Fatalf("digest mismatch: failed %d, err %v", ph.failed, err)
		}
	})
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json, which the
// benchmark's users read, in step with the metrics and workloads this
// program reports.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bf struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || (g.Bound != nil) != bounded {
				t.Errorf("%s[%d] = %+v, want %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
	setup := 0.0
	for _, m := range bf.EndToEnd {
		if *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
	}
	for _, m := range bf.EndToEnd {
		if *m.Bound > setup {
			t.Errorf("%s bound %v exceeds setup_s's %v, which must be the largest", m.Name, *m.Bound, setup)
		}
	}
}
