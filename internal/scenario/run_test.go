package scenario

// Scenario fan-out tests: a multi-cell scenario run through the shared pool
// must produce, per cell, exactly the Sweep a serial one-worker run of that
// cell's Options produces — the scenario layer adds routing, never results.

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"cmpleak/internal/config"
	"cmpleak/internal/experiment"
	"cmpleak/internal/resultcache"
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
		requireSameSweep(t, cell.Name, sweeps[i], serial)
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

// mergeShards runs every cell as shard i of n into the result cache
// root/shard<i> for each i, as `leaksweep -scenario -shard i/n -cache` does,
// then serves the unsharded batch from the union of those caches, as
// `-merge` does, and returns the merged sweeps.  It fails the test if the
// merge simulates any job.
func mergeShards(t *testing.T, cells []Cell, n int) []*experiment.Sweep {
	t.Helper()
	root := t.TempDir()
	named := NamedOptions(cells)
	for i := 0; i < n; i++ {
		store, err := resultcache.Open(filepath.Join(root, fmt.Sprintf("shard%d", i)), resultcache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sharded := NamedOptions(cells)
		for j := range sharded {
			sharded[j].Options.ShardIndex, sharded[j].Options.ShardCount = i, n
		}
		_, err = experiment.RunParallelAllContext(context.Background(), sharded, experiment.Parallelism{
			Progress: func(ev experiment.JobEvent) {
				rec := resultcache.Record{Cell: ev.Cell, OptionsDigest: sharded[ev.Sweep].Options.Digest(),
					Key: ev.Key, Result: ev.Result}
				if err := store.Put(rec); err != nil {
					t.Error(err)
				}
			},
		})
		if cerr := store.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, n, err)
		}
	}
	union, err := resultcache.Merge(filepath.Join(root, "shard*"), named)
	if err != nil {
		t.Fatal(err)
	}
	sweeps, err := experiment.RunParallelAllContext(context.Background(), named, experiment.Parallelism{
		Reuse:    union.ReuseFor(named),
		Progress: func(ev experiment.JobEvent) { t.Errorf("merge simulated %s", ev.Key) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return sweeps
}
