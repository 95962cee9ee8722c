package scenario

// Scenario fan-out tests: a multi-cell scenario run through the shared pool
// must produce, per cell, exactly the Sweep a serial one-worker run of that
// cell's Options produces — the scenario layer adds routing, never results.

import (
	"context"
	"testing"

	"cmpleak/internal/config"
	"cmpleak/internal/experiment"
)

// fanoutScenario expands to two cells (2- and 4-core) of two jobs each
// (baseline + decay) at a tiny scale.
const fanoutScenario = `{
  "version": 1,
  "name": "fanout",
  "benchmarks": ["FMM"],
  "l2_sizes_mb": [1],
  "techniques": ["decay:8K"],
  "core_counts": [2, 4],
  "scale": 0.005
}`

func TestRunCellsMatchesSerialPerCell(t *testing.T) {
	f, err := Parse([]byte(fanoutScenario))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := f.Expand(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("scenario expands to %d cells, want 2", len(cells))
	}

	var cellsSeen []string
	sweeps, err := experiment.RunParallelAllContext(context.Background(), NamedOptions(cells), experiment.Parallelism{
		Workers:  4,
		Progress: func(ev experiment.JobEvent) { cellsSeen = append(cellsSeen, ev.Cell) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweeps) != len(cells) {
		t.Fatalf("the pool returned %d sweeps for %d cells", len(sweeps), len(cells))
	}

	totalJobs := 0
	for i, cell := range cells {
		serial, err := runSweep(cell.Options, 1)
		if err != nil {
			t.Fatalf("%s: serial reference failed: %v", cell.Name, err)
		}
		if got, want := sweeps[i].Digest(), serial.Digest(); got != want {
			t.Errorf("%s: pooled cell digest diverged from serial run:\n  got:  %s\n  want: %s",
				cell.Name, got, want)
		}
		if got, want := sweeps[i].Report(), serial.Report(); got != want {
			t.Errorf("%s: pooled cell report diverged from serial run", cell.Name)
		}
		totalJobs += len(cell.Options.Jobs())
	}

	if len(cellsSeen) != totalJobs {
		t.Fatalf("got %d progress events, want %d", len(cellsSeen), totalJobs)
	}
	names := map[string]bool{}
	for _, c := range cellsSeen {
		names[c] = true
	}
	for _, cell := range cells {
		if !names[cell.Name] {
			t.Errorf("no progress event carried cell %q", cell.Name)
		}
	}
}

// runSweep runs one unnamed sweep through the pool with the given worker
// count (0 = GOMAXPROCS).
func runSweep(opts experiment.Options, workers int) (*experiment.Sweep, error) {
	sweeps, err := experiment.RunParallelAllContext(context.Background(),
		[]experiment.NamedOptions{{Options: opts}}, experiment.Parallelism{Workers: workers})
	if err != nil {
		return nil, err
	}
	return sweeps[0], nil
}
