package experiment

// Shard result files and the merge that joins them.  `leaksweep -shard i/n
// -out shard_i.json` runs one slice of the sweep per process (or machine)
// and snapshots its results; `leaksweep -merge 'shard_*.json'` validates
// that the snapshots form a disjoint and covering partition of one sweep
// and rebuilds the combined Sweep, from which every figure is regenerated
// exactly as if a single process had run the full matrix.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"

	"cmpleak/internal/config"
	"cmpleak/internal/core"
	"cmpleak/internal/decay"
)

// ShardFile is the JSON-serialisable snapshot of one sweep invocation: the
// sweep coordinates (everything that must agree across shards), the shard
// position, and the shard's results.
type ShardFile struct {
	Scale        float64      `json:"scale"`
	Seed         uint64       `json:"seed"`
	Benchmarks   []string     `json:"benchmarks"`
	CacheSizesMB []int        `json:"cache_sizes_mb"`
	Techniques   []decay.Spec `json:"techniques"`
	// Cores is the core count of the sweep's system (0 in files written
	// before the scenario layer's core-count axis existed; treated as the
	// paper's 4).
	Cores      int         `json:"cores,omitempty"`
	ShardIndex int         `json:"shard_index"`
	ShardCount int         `json:"shard_count"`
	Results    []KeyResult `json:"results"`
}

// KeyResult pairs one run key with its result.
type KeyResult struct {
	Key    Key         `json:"key"`
	Result core.Result `json:"result"`
}

// Snapshot captures the sweep as a shard file, results in stable key order.
func (s *Sweep) Snapshot() ShardFile {
	sf := ShardFile{
		Scale:        s.Options.Scale,
		Seed:         s.Options.Seed,
		Benchmarks:   append([]string(nil), s.Options.Benchmarks...),
		CacheSizesMB: append([]int(nil), s.Options.CacheSizesMB...),
		Techniques:   append([]decay.Spec(nil), s.Options.Techniques...),
		Cores:        s.Options.Base.Cores,
		ShardIndex:   s.Options.ShardIndex,
		ShardCount:   s.Options.ShardCount,
	}
	if len(s.sorted) > 0 { // an empty shard keeps encoding "results": null
		sf.Results = make([]KeyResult, len(s.sorted))
		for i, pos := range s.sorted {
			sf.Results[i] = KeyResult{Key: s.keys[pos], Result: s.res[pos]}
		}
	}
	return sf
}

// WriteShard serialises the sweep's snapshot as indented JSON.
func WriteShard(w io.Writer, s *Sweep) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Snapshot())
}

// ReadShard deserialises one shard file.
func ReadShard(r io.Reader) (ShardFile, error) {
	var sf ShardFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&sf); err != nil {
		return sf, fmt.Errorf("experiment: decoding shard file: %w", err)
	}
	return sf, nil
}

// options rebuilds the Options a shard file describes (Base is the default
// system at the recorded core count; beyond Cores it plays no role after the
// runs exist).
func (sf ShardFile) options() Options {
	base := config.Default()
	if sf.Cores > 0 {
		base = base.WithCores(sf.Cores)
	}
	return Options{
		Base:         base,
		Benchmarks:   sf.Benchmarks,
		CacheSizesMB: sf.CacheSizesMB,
		Techniques:   sf.Techniques,
		Scale:        sf.Scale,
		Seed:         sf.Seed,
		ShardIndex:   sf.ShardIndex,
		ShardCount:   sf.ShardCount,
	}
}

// coordinates is the part of a shard file every shard must agree on.
type coordinates struct {
	Scale        float64
	Seed         uint64
	Benchmarks   []string
	CacheSizesMB []int
	Techniques   []decay.Spec
	Cores        int
	ShardCount   int
}

func (sf ShardFile) coordinates() coordinates {
	cores := sf.Cores
	if cores == 0 {
		// Files written before the cores field existed describe the paper's
		// 4-core system; normalising here lets them merge with files written
		// by newer binaries for the same sweep.
		cores = config.Default().Cores
	}
	return coordinates{
		Scale:        sf.Scale,
		Seed:         sf.Seed,
		Benchmarks:   sf.Benchmarks,
		CacheSizesMB: sf.CacheSizesMB,
		Techniques:   sf.Techniques,
		Cores:        cores,
		ShardCount:   sf.ShardCount,
	}
}

// MergeShards validates that the shard files form a disjoint, covering
// partition of one sweep and joins them into the combined Sweep.
//
// Checks, in order: every shard agrees on the sweep coordinates (scale,
// seed, benchmarks, sizes, techniques, shard count); every shard index
// 0..n-1 appears exactly once; every shard holds exactly the results its
// shard of the canonical job enumeration prescribes (so shards are
// pairwise disjoint and their union is exactly the full matrix).
func MergeShards(shards ...ShardFile) (*Sweep, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("experiment: merge needs at least one shard file")
	}
	// Deterministic processing and error messages regardless of glob order.
	ordered := append([]ShardFile(nil), shards...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].ShardIndex < ordered[j].ShardIndex })

	want := ordered[0].coordinates()
	n := want.ShardCount
	if n <= 1 {
		if len(ordered) != 1 {
			return nil, fmt.Errorf("experiment: %d shard files of an unsharded sweep (want exactly 1)", len(ordered))
		}
	} else if len(ordered) != n {
		return nil, fmt.Errorf("experiment: %d shard files for a %d-way sweep", len(ordered), n)
	}

	seen := make(map[int]bool, len(ordered))
	for _, sf := range ordered {
		if got := sf.coordinates(); !reflect.DeepEqual(got, want) {
			return nil, fmt.Errorf("experiment: shard %d/%d disagrees on the sweep coordinates:\n  %+v\nvs\n  %+v",
				sf.ShardIndex, sf.ShardCount, got, want)
		}
		if seen[sf.ShardIndex] {
			return nil, fmt.Errorf("experiment: shard index %d appears twice", sf.ShardIndex)
		}
		seen[sf.ShardIndex] = true
		if n > 1 && (sf.ShardIndex < 0 || sf.ShardIndex >= n) {
			return nil, fmt.Errorf("experiment: shard index %d out of range [0,%d)", sf.ShardIndex, n)
		}
	}

	merged := ordered[0].options()
	merged.ShardIndex, merged.ShardCount = 0, 0
	if err := merged.Validate(); err != nil {
		return nil, err
	}
	sweep := newSweep(merged, merged.jobs())
	filled := make([]bool, len(sweep.keys))
	for _, sf := range ordered {
		expect := sf.options().Jobs()
		if len(sf.Results) != len(expect) {
			return nil, fmt.Errorf("experiment: shard %d holds %d results, its job slice has %d",
				sf.ShardIndex, len(sf.Results), len(expect))
		}
		expected := make(map[Key]bool, len(expect))
		for _, k := range expect {
			expected[k] = true
		}
		for _, kr := range sf.Results {
			if !expected[kr.Key] {
				return nil, fmt.Errorf("experiment: shard %d holds out-of-shard result %s", sf.ShardIndex, kr.Key)
			}
			i := sweep.position(kr.Key) // in the matrix: the shard expects it
			if filled[i] {
				return nil, fmt.Errorf("experiment: result %s appears in more than one shard", kr.Key)
			}
			filled[i] = true
			sweep.res[i] = kr.Result
		}
	}
	// Covering: every job of the full matrix is present.
	for i, ok := range filled {
		if !ok {
			return nil, fmt.Errorf("experiment: merged shards do not cover job %s", sweep.keys[i])
		}
	}
	return sweep, nil
}

// MergeShardGlob loads every shard file matching the glob and merges them.
// A glob that matches no files is an explicit error — never an empty merged
// report: a typo in the pattern must not look like a successful sweep.
func MergeShardGlob(glob string) (*Sweep, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, fmt.Errorf("experiment: invalid shard glob %q: %w", glob, err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("experiment: shard glob %q matches no files", glob)
	}
	shards := make([]ShardFile, 0, len(paths))
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sf, err := ReadShard(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		shards = append(shards, sf)
	}
	return MergeShards(shards...)
}
