package experiment

// Sharding tests: the -shard i/n partition must be deterministic, pairwise
// disjoint, and cover the full sweep, so independent processes can each run
// one shard and together produce exactly the paper matrix.

import (
	"testing"

	"cmpleak/internal/decay"
)

func shardOptions() Options {
	opts := DefaultOptions(0.01)
	opts.Benchmarks = []string{"WATER-NS", "mpeg2dec", "FMM"}
	opts.CacheSizesMB = []int{1, 2}
	opts.Techniques = []decay.Spec{
		{Kind: decay.KindProtocol},
		{Kind: decay.KindDecay, DecayCycles: 8 * 1024},
	}
	return opts
}

func TestShardsDisjointAndCovering(t *testing.T) {
	full := shardOptions().Jobs()
	if len(full) != 3*2*3 { // benchmarks × sizes × (baseline + 2 techniques)
		t.Fatalf("full sweep has %d jobs, want 18", len(full))
	}
	for _, n := range []int{1, 2, 3, 5, 7, 19} {
		seen := make(map[Key]int)
		var total int
		for i := 0; i < n; i++ {
			opts := shardOptions()
			opts.ShardIndex, opts.ShardCount = i, n
			if err := opts.Validate(); err != nil {
				t.Fatalf("shard %d/%d invalid: %v", i, n, err)
			}
			shard := opts.Jobs()
			total += len(shard)
			for _, k := range shard {
				seen[k]++
			}
		}
		if total != len(full) {
			t.Fatalf("n=%d: shards hold %d jobs, want %d", n, total, len(full))
		}
		for _, k := range full {
			switch seen[k] {
			case 0:
				t.Fatalf("n=%d: job %s not covered by any shard", n, k)
			case 1:
				// exactly once: disjoint and covering
			default:
				t.Fatalf("n=%d: job %s appears in %d shards", n, k, seen[k])
			}
		}
	}
}

// Shards must keep whole (benchmark, size) groups together: a technique
// run's baseline always lands in the same shard, so per-shard figure
// tables show real baseline-relative values instead of zero cells.
func TestShardsKeepBaselineWithTechniques(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		for i := 0; i < n; i++ {
			opts := shardOptions()
			opts.ShardIndex, opts.ShardCount = i, n
			inShard := make(map[Key]bool)
			for _, k := range opts.Jobs() {
				inShard[k] = true
			}
			for k := range inShard {
				base := Key{k.Benchmark, k.SizeMB, baselineName}
				if !inShard[base] {
					t.Fatalf("shard %d/%d holds %s without its baseline", i, n, k)
				}
			}
		}
	}
}

func TestShardsDeterministic(t *testing.T) {
	opts := shardOptions()
	opts.ShardIndex, opts.ShardCount = 1, 3
	a, b := opts.Jobs(), opts.Jobs()
	if len(a) == 0 {
		t.Fatal("shard 1/3 of an 18-job sweep is empty")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("shard enumeration not deterministic at job %d", i)
		}
	}
}

func TestShardValidation(t *testing.T) {
	opts := shardOptions()
	opts.ShardCount = -1
	if opts.Validate() == nil {
		t.Fatal("negative ShardCount accepted")
	}
	opts.ShardCount = 3
	opts.ShardIndex = 3
	if opts.Validate() == nil {
		t.Fatal("ShardIndex == ShardCount accepted")
	}
	opts.ShardIndex = -1
	if opts.Validate() == nil {
		t.Fatal("negative ShardIndex accepted")
	}
	opts.ShardIndex = 2
	if err := opts.Validate(); err != nil {
		t.Fatalf("valid shard rejected: %v", err)
	}
}

// A sharded Run must execute exactly its shard's jobs and store only their
// results.
func TestShardedRunExecutesOnlyItsJobs(t *testing.T) {
	opts := shardOptions()
	opts.ShardIndex, opts.ShardCount = 0, 2
	sweep, err := runSweep(opts, Parallelism{})
	if err != nil {
		t.Fatal(err)
	}
	want := opts.Jobs()
	got := sweep.Keys()
	if len(got) != len(want) {
		t.Fatalf("sharded run stored %d results, want %d", len(got), len(want))
	}
	wantSet := make(map[Key]bool, len(want))
	for _, k := range want {
		wantSet[k] = true
	}
	for _, k := range got {
		if !wantSet[k] {
			t.Fatalf("sharded run produced out-of-shard result %s", k)
		}
	}
}

// NumJobs must count exactly the jobs Jobs builds, for every shard and for
// degenerate matrices.
func TestNumJobsMatchesJobs(t *testing.T) {
	single := DefaultOptions(0.01)
	single.Benchmarks, single.CacheSizesMB = single.Benchmarks[:1], single.CacheSizesMB[:1]
	single.Techniques = single.Techniques[:1]
	noTechniques := DefaultOptions(0.01)
	noTechniques.Techniques = nil
	oneBenchmark := DefaultOptions(0.01)
	oneBenchmark.Benchmarks = []string{"FMM"}
	oneSize := DefaultOptions(0.01)
	oneSize.CacheSizesMB = []int{4}
	for _, m := range []struct {
		name string
		opts Options
	}{
		{"paper", DefaultOptions(0.01)},
		{"small", shardOptions()},
		{"one of each axis", single},
		{"no techniques", noTechniques},
		{"one benchmark", oneBenchmark},
		{"one size", oneSize},
	} {
		for _, n := range []int{1, 2, 3, 7, 192} {
			for i := range n {
				opts := m.opts
				opts.ShardIndex, opts.ShardCount = i, n
				if got, want := opts.NumJobs(), len(opts.Jobs()); got != want {
					t.Errorf("%s, shard %d/%d: NumJobs() = %d, len(Jobs()) = %d", m.name, i, n, got, want)
				}
			}
		}
		if got, want := m.opts.NumJobs(), len(m.opts.Jobs()); got != want {
			t.Errorf("%s, unsharded: NumJobs() = %d, len(Jobs()) = %d", m.name, got, want)
		}
	}
	if n := DefaultOptions(0.01).NumJobs(); n != 192 {
		t.Errorf("the paper matrix counts %d jobs, want 192", n)
	}
}
