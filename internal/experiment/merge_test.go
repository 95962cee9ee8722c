package experiment_test

// Merge tests: a sweep run as n shards, each recording into its own result
// cache, is joined by resultcache.Merge — the path behind
// `leaksweep -merge` — into the unsharded sweep, with the same digest and
// report bytes and nothing simulated.  A union that misses a job or holds
// two different results for one, a path that is not a cache directory and a
// glob that matches nothing are refused with classified errors.  The tests
// live in an external package because resultcache imports experiment.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cmpleak/internal/decay"
	"cmpleak/internal/experiment"
	"cmpleak/internal/resultcache"
)

func mergeOptions() experiment.Options {
	opts := experiment.DefaultOptions(0.01)
	opts.Benchmarks = []string{"WATER-NS", "mpeg2dec", "FMM"}
	opts.CacheSizesMB = []int{1, 2}
	opts.Techniques = []decay.Spec{
		{Kind: decay.KindProtocol},
		{Kind: decay.KindDecay, DecayCycles: 8 * 1024},
	}
	return opts
}

var (
	fullOnce  sync.Once
	fullSweep *experiment.Sweep
	fullErr   error
)

// unsharded runs mergeOptions once per test binary: the reference every
// merge must reproduce, and the source of the hand-built stores below.
func unsharded(t *testing.T) *experiment.Sweep {
	t.Helper()
	fullOnce.Do(func() {
		var sweeps []*experiment.Sweep
		sweeps, fullErr = experiment.RunParallelAllContext(context.Background(),
			[]experiment.NamedOptions{{Options: mergeOptions()}}, experiment.Parallelism{})
		if fullErr == nil {
			fullSweep = sweeps[0]
		}
	})
	if fullErr != nil {
		t.Fatal(fullErr)
	}
	return fullSweep
}

// recordRun runs opts through the pool and writes every result into the
// store in dir, as `leaksweep -cache dir` does.
func recordRun(t *testing.T, dir string, opts experiment.Options) {
	t.Helper()
	s, err := resultcache.Open(dir, resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	digest := opts.Digest()
	_, err = experiment.RunParallelAllContext(context.Background(),
		[]experiment.NamedOptions{{Options: opts}}, experiment.Parallelism{
			Progress: func(ev experiment.JobEvent) {
				if ev.Err != nil {
					return
				}
				if err := s.Put(resultcache.Record{OptionsDigest: digest, Key: ev.Key, Result: ev.Result}); err != nil {
					t.Error(err)
				}
			},
		})
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
}

// storeOf writes the full sweep's results for keys into the store in dir
// under digest, and returns dir.
func storeOf(t *testing.T, dir, digest string, keys []experiment.Key) string {
	t.Helper()
	full := unsharded(t)
	s, err := resultcache.Open(dir, resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, k := range keys {
		res, _ := full.Result(k.Benchmark, k.SizeMB, k.Technique)
		if err := s.Put(resultcache.Record{OptionsDigest: digest, Key: k, Result: res}); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// shardKeys lists the jobs of shard i of n of mergeOptions.
func shardKeys(i, n int) []experiment.Key {
	opts := mergeOptions()
	opts.ShardIndex, opts.ShardCount = i, n
	return opts.Jobs()
}

// merge serves mergeOptions from the stores matching glob, failing the test
// if the pool is handed any job to simulate.
func merge(t *testing.T, glob string) (*experiment.Sweep, error) {
	t.Helper()
	named := []experiment.NamedOptions{{Options: mergeOptions()}}
	union, err := resultcache.Merge(glob, named)
	if err != nil {
		return nil, err
	}
	ran := 0
	sweeps, err := experiment.RunParallelAllContext(context.Background(), named, experiment.Parallelism{
		Reuse:    union.ReuseFor(named),
		Progress: func(experiment.JobEvent) { ran++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran != 0 {
		t.Fatalf("merge simulated %d job(s), want 0", ran)
	}
	return sweeps[0], nil
}

func reportBytes(t *testing.T, s *experiment.Sweep) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := experiment.WriteReport(&b, s, "", false); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// requireUnsharded fails unless merged digests and renders exactly like the
// unsharded sweep.
func requireUnsharded(t *testing.T, merged *experiment.Sweep) {
	t.Helper()
	full := unsharded(t)
	if got, want := merged.Digest(), full.Digest(); got != want {
		t.Fatalf("merged digest %s != unsharded %s", got, want)
	}
	if got, want := reportBytes(t, merged), reportBytes(t, full); !bytes.Equal(got, want) {
		t.Fatalf("merged report differs from the unsharded sweep:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// requireErr fails unless err wraps class and mentions every want.
func requireErr(t *testing.T, err, class error, want ...string) {
	t.Helper()
	if err == nil {
		t.Fatal("merge accepted the stores")
	}
	if !errors.Is(err, class) {
		t.Fatalf("error %q is not classified as %q", err, class)
	}
	for _, w := range want {
		if !strings.Contains(err.Error(), w) {
			t.Fatalf("error %q does not mention %q", err, w)
		}
	}
}

// TestMergeShardsReproducesFullSweep is `leaksweep -shard i/n -cache DIRi`
// followed by `-merge 'DIR*'`: real sharded runs record under the unsharded
// options digest, and their union reproduces the unsharded sweep.
func TestMergeShardsReproducesFullSweep(t *testing.T) {
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			root := t.TempDir()
			for i := 0; i < n; i++ {
				opts := mergeOptions()
				opts.ShardIndex, opts.ShardCount = i, n
				recordRun(t, filepath.Join(root, fmt.Sprintf("shard%d", i)), opts)
			}
			merged, err := merge(t, filepath.Join(root, "shard*"))
			if err != nil {
				t.Fatal(err)
			}
			requireUnsharded(t, merged)
		})
	}
}

// TestMergeShardsSingleUnshardedFile: one unsharded store is a (trivial)
// union.
func TestMergeShardsSingleUnshardedFile(t *testing.T) {
	dir := storeOf(t, filepath.Join(t.TempDir(), "all"), mergeOptions().Digest(), mergeOptions().Jobs())
	merged, err := merge(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	requireUnsharded(t, merged)
}

func TestMergeShardsRejectsBadPartitions(t *testing.T) {
	digest := mergeOptions().Digest()
	shards := func(t *testing.T, n int) string {
		root := t.TempDir()
		for i := 0; i < n; i++ {
			storeOf(t, filepath.Join(root, fmt.Sprintf("shard%d", i)), digest, shardKeys(i, n))
		}
		return root
	}

	t.Run("missing-shard", func(t *testing.T) {
		root := shards(t, 3)
		if err := os.RemoveAll(filepath.Join(root, "shard1")); err != nil {
			t.Fatal(err)
		}
		_, err := merge(t, filepath.Join(root, "shard*"))
		requireErr(t, err, resultcache.ErrMerge, shardKeys(1, 3)[0].String())
	})
	t.Run("duplicate-shard", func(t *testing.T) {
		// A re-run shard writes the same content address: overlap is legal.
		root := shards(t, 3)
		storeOf(t, filepath.Join(root, "shard1-rerun"), digest, shardKeys(1, 3))
		merged, err := merge(t, filepath.Join(root, "shard*"))
		if err != nil {
			t.Fatal(err)
		}
		requireUnsharded(t, merged)
	})
	t.Run("none", func(t *testing.T) {
		_, err := merge(t, filepath.Join(t.TempDir(), "shard*"))
		requireErr(t, err, resultcache.ErrMerge, "matches no")
	})
	t.Run("coordinate-mismatch", func(t *testing.T) {
		// Shards of the same matrix at another seed digest differently, so
		// they cover nothing of this one.
		other := mergeOptions()
		other.Seed++
		root := t.TempDir()
		for i := 0; i < 2; i++ {
			storeOf(t, filepath.Join(root, fmt.Sprintf("shard%d", i)), other.Digest(), shardKeys(i, 2))
		}
		_, err := merge(t, filepath.Join(root, "shard*"))
		requireErr(t, err, resultcache.ErrMerge, mergeOptions().Jobs()[0].String())
	})
	t.Run("foreign-result", func(t *testing.T) {
		// Records of other sweeps in a store are ignored, not an error.
		root := shards(t, 2)
		other := mergeOptions()
		other.Seed++
		storeOf(t, filepath.Join(root, "shard0"), other.Digest(), shardKeys(1, 2))
		merged, err := merge(t, filepath.Join(root, "shard*"))
		if err != nil {
			t.Fatal(err)
		}
		requireUnsharded(t, merged)
	})
	t.Run("conflicting-duplicate", func(t *testing.T) {
		root := shards(t, 2)
		forged := shardKeys(0, 2)[0]
		res, _ := unsharded(t).Result(forged.Benchmark, forged.SizeMB, forged.Technique)
		res.Cycles++
		s, err := resultcache.Open(filepath.Join(root, "shard1"), resultcache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(resultcache.Record{OptionsDigest: digest, Key: forged, Result: res}); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		_, err = merge(t, filepath.Join(root, "shard*"))
		requireErr(t, err, resultcache.ErrMerge, "different results", forged.String(), "shard0", "shard1")
	})
	t.Run("truncated-results", func(t *testing.T) {
		root := t.TempDir()
		storeOf(t, filepath.Join(root, "shard0"), digest, shardKeys(0, 2))
		keys := shardKeys(1, 2)
		storeOf(t, filepath.Join(root, "shard1"), digest, keys[:len(keys)-1])
		_, err := merge(t, filepath.Join(root, "shard*"))
		requireErr(t, err, resultcache.ErrMerge, keys[len(keys)-1].String())
	})
}

// TestReadShardRejectsGarbage: a matched regular file is not a cache
// directory, and merging leaves it untouched.
func TestReadShardRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard0.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := merge(t, path)
	requireErr(t, err, resultcache.ErrStore, path)
	if data, err := os.ReadFile(path); err != nil || string(data) != "not json" {
		t.Fatalf("merge changed the rejected file: %q, %v", data, err)
	}
}

// requireUntouched fails unless dir still holds exactly the names in want.
func requireUntouched(t *testing.T, dir string, want ...string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name())
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("merge changed %s: holds %v, want %v", dir, got, want)
	}
}

// TestMergeShardGlob covers the glob front door: only matching cache
// directories join, a glob matching nothing is an explicit error — a typo'd
// pattern must never look like a successful (empty) sweep — and a matched
// directory that is not a cache is refused before anything is written into
// it.
func TestMergeShardGlob(t *testing.T) {
	root := t.TempDir()
	digest := mergeOptions().Digest()
	for i := 0; i < 3; i++ {
		storeOf(t, filepath.Join(root, fmt.Sprintf("shard%d", i)), digest, shardKeys(i, 3))
	}
	// A non-matching conflicting store must not take part.
	storeOf(t, filepath.Join(root, "other"), "not-this-sweep", mergeOptions().Jobs())
	merged, err := merge(t, filepath.Join(root, "shard*"))
	if err != nil {
		t.Fatal(err)
	}
	requireUnsharded(t, merged)

	t.Run("empty-glob", func(t *testing.T) {
		_, err := merge(t, filepath.Join(root, "nothing*"))
		requireErr(t, err, resultcache.ErrMerge, "matches no")
	})
	t.Run("invalid-glob", func(t *testing.T) {
		_, err := merge(t, "[unclosed")
		requireErr(t, err, resultcache.ErrMerge, "invalid glob")
	})
	t.Run("unreadable-shard", func(t *testing.T) {
		garbage := filepath.Join(root, "shard_bad")
		if err := os.Mkdir(garbage, 0o755); err != nil {
			t.Fatal(err)
		}
		seg := filepath.Join(garbage, "seg-00000001.cas")
		if err := os.WriteFile(seg, []byte("not a segment"), 0o644); err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(garbage)
		_, err := merge(t, filepath.Join(root, "shard*"))
		requireErr(t, err, resultcache.ErrStore, garbage)
		requireUntouched(t, garbage, "seg-00000001.cas")
	})
	t.Run("non-cache-dir", func(t *testing.T) {
		stray := filepath.Join(root, "shard_stray")
		if err := os.Mkdir(stray, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(stray, "notes.txt"), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(stray)
		_, err := merge(t, filepath.Join(root, "shard*"))
		requireErr(t, err, resultcache.ErrStore, stray)
		requireUntouched(t, stray, "notes.txt")
	})
}
