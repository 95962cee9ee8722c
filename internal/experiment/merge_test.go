package experiment

// Merge tests: per-shard snapshots of a sharded sweep must round-trip
// through JSON and rejoin into a sweep whose figures are identical to the
// unsharded run; incomplete, overlapping or mismatched shard sets must be
// rejected with clean errors.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// runShards executes the sweep in n shards and snapshots each through the
// JSON round-trip.
func runShards(t *testing.T, n int) []ShardFile {
	t.Helper()
	var shards []ShardFile
	for i := 0; i < n; i++ {
		opts := shardOptions()
		opts.ShardIndex, opts.ShardCount = i, n
		sweep, err := runSweep(opts, Parallelism{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteShard(&buf, sweep); err != nil {
			t.Fatal(err)
		}
		sf, err := ReadShard(&buf)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, sf)
	}
	return shards
}

func TestMergeShardsReproducesFullSweep(t *testing.T) {
	full, err := runSweep(shardOptions(), Parallelism{})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeShards(runShards(t, 3)...)
	if err != nil {
		t.Fatal(err)
	}

	wantKeys, gotKeys := full.Keys(), merged.Keys()
	if !reflect.DeepEqual(wantKeys, gotKeys) {
		t.Fatalf("merged key set differs:\n  got:  %v\n  want: %v", gotKeys, wantKeys)
	}
	for _, k := range wantKeys {
		w, _ := full.Result(k.Benchmark, k.SizeMB, k.Technique)
		g, _ := merged.Result(k.Benchmark, k.SizeMB, k.Technique)
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("%s: merged result differs from the unsharded run", k)
		}
	}
	// The figure set — what -merge exists to produce — must be identical.
	wantFigs, gotFigs := full.AllFigures(), merged.AllFigures()
	if !reflect.DeepEqual(wantFigs, gotFigs) {
		t.Fatalf("merged figures differ from the unsharded sweep")
	}
	if want, got := full.Report(), merged.Report(); want != got {
		t.Fatalf("merged report differs from the unsharded sweep:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

func TestMergeShardsSingleUnshardedFile(t *testing.T) {
	sweep, err := runSweep(shardOptions(), Parallelism{})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeShards(sweep.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sweep.Keys(), merged.Keys()) {
		t.Fatal("single-file merge lost results")
	}
}

func TestMergeShardsRejectsBadPartitions(t *testing.T) {
	shards := runShards(t, 3)

	t.Run("missing-shard", func(t *testing.T) {
		if _, err := MergeShards(shards[0], shards[2]); err == nil {
			t.Fatal("merge accepted an incomplete shard set")
		}
	})
	t.Run("duplicate-shard", func(t *testing.T) {
		if _, err := MergeShards(shards[0], shards[1], shards[1]); err == nil {
			t.Fatal("merge accepted a duplicated shard")
		}
	})
	t.Run("none", func(t *testing.T) {
		if _, err := MergeShards(); err == nil {
			t.Fatal("merge accepted zero shard files")
		}
	})
	t.Run("coordinate-mismatch", func(t *testing.T) {
		bad := shards[1]
		bad.Seed++
		if _, err := MergeShards(shards[0], bad, shards[2]); err == nil {
			t.Fatal("merge accepted shards with different seeds")
		}
		bad = shards[1]
		bad.Benchmarks = append([]string{"FMM"}, bad.Benchmarks[1:]...)
		if _, err := MergeShards(shards[0], bad, shards[2]); err == nil {
			t.Fatal("merge accepted shards with different benchmark lists")
		}
	})
	t.Run("foreign-result", func(t *testing.T) {
		bad := shards[1]
		bad.Results = append([]KeyResult(nil), bad.Results...)
		bad.Results[0].Key = shards[0].Results[0].Key
		if _, err := MergeShards(shards[0], bad, shards[2]); err == nil {
			t.Fatal("merge accepted a shard holding another shard's result")
		}
	})
	t.Run("truncated-results", func(t *testing.T) {
		bad := shards[1]
		bad.Results = bad.Results[:len(bad.Results)-1]
		if _, err := MergeShards(shards[0], bad, shards[2]); err == nil {
			t.Fatal("merge accepted a shard with missing results")
		}
	})
}

func TestReadShardRejectsGarbage(t *testing.T) {
	if _, err := ReadShard(bytes.NewReader([]byte("not json"))); err == nil {
		t.Fatal("garbage shard file accepted")
	}
}

// TestMergeShardGlob covers the file-glob front door: shard files written to
// disk merge exactly like in-memory ones, and a glob matching no files is an
// explicit error — a typo'd pattern must never look like a successful (empty)
// sweep.
func TestMergeShardGlob(t *testing.T) {
	dir := t.TempDir()
	full, err := runSweep(shardOptions(), Parallelism{})
	if err != nil {
		t.Fatal(err)
	}
	for i, sf := range runShards(t, 3) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		if err := enc.Encode(sf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("shard%d.json", i)), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := MergeShardGlob(filepath.Join(dir, "shard*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := merged.Digest(), full.Digest(); got != want {
		t.Fatalf("glob-merged digest %s != unsharded %s", got, want)
	}

	t.Run("empty-glob", func(t *testing.T) {
		_, err := MergeShardGlob(filepath.Join(dir, "nothing*.json"))
		if err == nil {
			t.Fatal("empty glob reported success instead of an error")
		}
		if !strings.Contains(err.Error(), "matches no files") {
			t.Fatalf("empty-glob error %q does not say the glob matched nothing", err)
		}
	})
	t.Run("invalid-glob", func(t *testing.T) {
		if _, err := MergeShardGlob("[unclosed"); err == nil {
			t.Fatal("invalid glob pattern accepted")
		}
	})
	t.Run("unreadable-shard", func(t *testing.T) {
		bad := filepath.Join(dir, "shard_bad.json")
		if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := MergeShardGlob(filepath.Join(dir, "shard*.json")); err == nil {
			t.Fatal("corrupt shard file accepted")
		}
	})
}

// TestMergeShardsAcceptsLegacyCoresField: shard files written before the
// cores coordinate existed (field absent -> 0) must merge with files written
// by newer binaries for the same 4-core sweep.
func TestMergeShardsAcceptsLegacyCoresField(t *testing.T) {
	shards := runShards(t, 3)
	legacy := shards[1]
	legacy.Cores = 0
	if _, err := MergeShards(shards[0], legacy, shards[2]); err != nil {
		t.Fatalf("legacy shard (cores=0) rejected against cores=4 peers: %v", err)
	}
	// A genuinely different core count must still be rejected.
	foreign := shards[1]
	foreign.Cores = 8
	if _, err := MergeShards(shards[0], foreign, shards[2]); err == nil {
		t.Fatal("merge accepted shards with different core counts")
	}
}
