package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"cmpleak/internal/config"
	"cmpleak/internal/decay"
	"cmpleak/internal/experiment"
	"cmpleak/internal/workload"
)

// valid returns a minimal valid scenario the error tests mutate.
func valid() File {
	return File{
		Version:    1,
		Benchmarks: []string{"WATER-NS", "FMM"},
		L2SizesMB:  []int{1, 2},
		Techniques: []string{"protocol", "decay:8K"},
		CoreCounts: []int{2, 4},
		Seeds:      []uint64{7},
		Scale:      0.01,
	}
}

func TestValidScenarioValidates(t *testing.T) {
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
}

// TestValidationErrors is the satellite table: every malformed axis yields a
// distinct, wrapped sentinel whose message names the offending field.
func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*File)
		wantErr error
		inMsg   string // substring naming the offending field
	}{
		{"wrong version", func(f *File) { f.Version = 3 }, ErrVersion, "version 3"},
		{"zero version", func(f *File) { f.Version = 0 }, ErrVersion, "version 0"},
		{"mixes in a v1 file", func(f *File) {
			f.Mixes = []Mix{{Name: "m", Cores: []string{"FMM"}}}
		}, ErrVersion, "mixes requires version 2"},
		{"mix with empty name", func(f *File) {
			f.Version = 2
			f.Mixes = []Mix{{Name: "", Cores: []string{"FMM"}}}
		}, ErrMix, "empty name"},
		{"mix with reserved name char", func(f *File) {
			f.Version = 2
			f.Mixes = []Mix{{Name: "a|b", Cores: []string{"FMM"}}}
		}, ErrMix, "a|b"},
		{"mix with no elements", func(f *File) {
			f.Version = 2
			f.Mixes = []Mix{{Name: "m", Cores: nil}}
		}, ErrMix, "m"},
		{"mix with unknown element", func(f *File) {
			f.Version = 2
			f.Mixes = []Mix{{Name: "m", Cores: []string{"quake3"}}}
		}, ErrMix, "quake3"},
		{"mix nesting a mix", func(f *File) {
			f.Version = 2
			f.Mixes = []Mix{{Name: "m", Cores: []string{"mix:n=FMM"}}}
		}, ErrMix, "nests"},
		{"mix with bad stat element", func(f *File) {
			f.Version = 2
			f.Mixes = []Mix{{Name: "m", Cores: []string{"stat:bogus=1"}}}
		}, ErrMix, "stat:bogus=1"},
		{"mix not tiling the core counts", func(f *File) {
			f.Version = 2
			f.Mixes = []Mix{{Name: "m", Cores: []string{"FMM", "FMM", "WATER-NS"}}}
		}, ErrMix, "3 per-core elements"},
		{"duplicate mix name", func(f *File) {
			f.Version = 2
			f.Mixes = []Mix{
				{Name: "m", Cores: []string{"FMM"}},
				{Name: "m", Cores: []string{"WATER-NS"}},
			}
		}, ErrDuplicate, "m"},
		{"mix duplicating a benchmarks entry", func(f *File) {
			f.Version = 2
			f.Benchmarks = append(f.Benchmarks, "mix:m=FMM")
			f.Mixes = []Mix{{Name: "m", Cores: []string{"FMM"}}}
		}, ErrDuplicate, "mix:m=FMM"},
		{"bad stat benchmark", func(f *File) {
			f.Benchmarks = []string{"stat:zorp=1"}
		}, ErrBenchmark, "zorp"},
		{"bad mix benchmark entry", func(f *File) {
			f.Benchmarks = []string{"mix:m=FMM|"}
		}, ErrMix, "empty element"},
		{"empty benchmarks axis", func(f *File) { f.Benchmarks = nil }, ErrEmptyAxis, "benchmarks"},
		{"empty sizes axis", func(f *File) { f.L2SizesMB = nil }, ErrEmptyAxis, "l2_sizes_mb"},
		{"empty techniques axis", func(f *File) { f.Techniques = nil }, ErrEmptyAxis, "techniques"},
		{"unknown benchmark", func(f *File) { f.Benchmarks = []string{"quake3"} }, ErrBenchmark, "quake3"},
		{"empty trace path", func(f *File) { f.Benchmarks = []string{"trace:"} }, ErrBenchmark, "trace:"},
		{"unknown technique", func(f *File) { f.Techniques = []string{"turbo"} }, ErrTechnique, "turbo"},
		{"explicit baseline", func(f *File) { f.Techniques = []string{"baseline"} }, ErrTechnique, "baseline"},
		{"decay without interval", func(f *File) { f.Techniques = []string{"decay"} }, ErrTechnique, "decay"},
		{"zero cores", func(f *File) { f.CoreCounts = []int{0} }, ErrCores, "core_counts entry 0"},
		{"negative cores", func(f *File) { f.CoreCounts = []int{-2} }, ErrCores, "core_counts"},
		{"absurd cores", func(f *File) { f.CoreCounts = []int{1 << 20} }, ErrCores, "core_counts"},
		{"non-pow2 cores", func(f *File) { f.CoreCounts = []int{6} }, ErrCores, "not a power of two"},
		{"non-pow2 L2 size", func(f *File) { f.L2SizesMB = []int{3} }, ErrSize, "3 MB"},
		{"zero L2 size", func(f *File) { f.L2SizesMB = []int{0} }, ErrSize, "0 MB"},
		{"duplicate benchmark cell", func(f *File) { f.Benchmarks = []string{"FMM", "FMM"} }, ErrDuplicate, "FMM"},
		{"duplicate size cell", func(f *File) { f.L2SizesMB = []int{1, 1} }, ErrDuplicate, "1"},
		{"duplicate technique cell", func(f *File) { f.Techniques = []string{"decay:8K", "decay8K"} }, ErrDuplicate, "decay8K"},
		{"duplicate cores cell", func(f *File) { f.CoreCounts = []int{2, 2} }, ErrDuplicate, "2"},
		{"duplicate seed cell", func(f *File) { f.Seeds = []uint64{7, 7} }, ErrDuplicate, "7"},
		{"negative scale", func(f *File) { f.Scale = -1 }, ErrScale, "scale"},
		{"empty override", func(f *File) { f.Overrides = []Override{{}} }, ErrOverride, "overrides[0]"},
		{"override off-axis size", func(f *File) { f.Overrides = []Override{{L2MB: 8, Scale: 0.5}} }, ErrOverride, "l2_mb 8"},
		{"override off-axis cores", func(f *File) { f.Overrides = []Override{{Cores: 16, Scale: 0.5}} }, ErrOverride, "cores 16"},
		{"override bad interval", func(f *File) { f.Overrides = []Override{{DecayCycles: "fast"}} }, ErrOverride, "fast"},
		{"override bad scale", func(f *File) { f.Overrides = []Override{{Scale: -3}} }, ErrOverride, "scale"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := valid()
			tc.mutate(&f)
			err := f.Validate()
			if err == nil {
				t.Fatal("validation should fail")
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("error %v does not wrap %v", err, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.inMsg) {
				t.Fatalf("error %q does not name the offending field (%q)", err, tc.inMsg)
			}
			// Expansion must refuse the same file.
			if _, err := f.Expand(config.Default()); err == nil {
				t.Fatal("Expand accepted an invalid scenario")
			}
		})
	}
}

func TestParseRejectsSyntaxAndUnknownFields(t *testing.T) {
	for name, data := range map[string]string{
		"garbage":       "{not json",
		"unknown field": `{"version":1,"benchmarks":["FMM"],"l2_sizes_mb":[1],"techniques":["protocol"],"turbo":true}`,
		"trailing data": `{"version":1,"benchmarks":["FMM"],"l2_sizes_mb":[1],"techniques":["protocol"]} {"x":1}`,
	} {
		if _, err := Parse([]byte(data)); !errors.Is(err, ErrSyntax) {
			t.Errorf("%s: error %v does not wrap ErrSyntax", name, err)
		}
	}
}

// expansionDigest hashes the expanded cell list — names, coordinates, and
// every job key in feed order — so the golden test pins the exact job list a
// scenario produces.
func expansionDigest(cells []Cell) string {
	h := sha256.New()
	put := func(s string) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(len(s)))
		h.Write(b[:])
		h.Write([]byte(s))
	}
	for _, c := range cells {
		put(c.Name)
		put(fmt.Sprintf("cores=%d seed=%d scale=%g", c.Options.Base.Cores, c.Options.Seed, c.Options.Scale))
		for _, k := range c.Options.Jobs() {
			put(k.String())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenExpansionDigest pins the expansion of the override fixture below:
// cell order, cell names, the per-cell job lists and the override-driven
// size split.  Recorded when the scenario layer was introduced (PR 5).
const goldenExpansionDigest = "59bd875aed8942a6a1089ad68be3f1c242568cf38b373cb21b225f7cfa5dcbe3"

// overrideFixture exercises every expansion feature: two core counts, two
// seeds, a decay-interval override pinned to one size, and a scale override
// pinned to one core count.
func overrideFixture() File {
	return File{
		Version:    1,
		Name:       "study",
		Benchmarks: []string{"WATER-NS"},
		L2SizesMB:  []int{1, 2},
		Techniques: []string{"protocol", "decay:8K", "sel_decay:8K"},
		CoreCounts: []int{2, 4},
		Seeds:      []uint64{1, 9},
		Scale:      0.01,
		Overrides: []Override{
			{L2MB: 1, DecayCycles: "4K"},
			{Cores: 2, Scale: 0.005},
		},
	}
}

func TestExpansionGoldenDigest(t *testing.T) {
	cells, err := overrideFixture().Expand(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	got := expansionDigest(cells)
	t.Logf("expansion digest: %s", got)
	if got != goldenExpansionDigest {
		t.Fatalf("expansion digest changed:\n  got:  %s\n  want: %s\n"+
			"The scenario expansion is no longer identical to the recorded job list. "+
			"If the change is intentional, update goldenExpansionDigest.", got, goldenExpansionDigest)
	}
}

func TestExpansionAppliesOverrides(t *testing.T) {
	cells, err := overrideFixture().Expand(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	// 2 cores x 2 seeds x 2 size groups (the decay override splits 1 MB from
	// 2 MB) = 8 cells.
	if len(cells) != 8 {
		t.Fatalf("expanded %d cells, want 8", len(cells))
	}
	byName := map[string]Cell{}
	for _, c := range cells {
		if _, dup := byName[c.Name]; dup {
			t.Fatalf("cell name %q duplicated", c.Name)
		}
		byName[c.Name] = c
		if err := c.Options.Validate(); err != nil {
			t.Fatalf("cell %s options invalid: %v", c.Name, err)
		}
	}
	c1, ok := byName["study/c2-seed1-l2_1MB"]
	if !ok {
		t.Fatalf("missing 1MB cell; have %v", names(cells))
	}
	for _, spec := range c1.Options.Techniques {
		if spec.Kind != decay.KindProtocol && spec.DecayCycles != 4*1024 {
			t.Fatalf("decay override not applied: %+v", spec)
		}
	}
	if c1.Options.Scale != 0.005 {
		t.Fatalf("scale override not applied to 2-core cell: %g", c1.Options.Scale)
	}
	c2 := byName["study/c4-seed9-l2_2MB"]
	for _, spec := range c2.Options.Techniques {
		if spec.Kind == decay.KindDecay && spec.DecayCycles != 8*1024 {
			t.Fatalf("2MB cell should keep its declared interval: %+v", spec)
		}
	}
	if c2.Options.Scale != 0.01 {
		t.Fatalf("4-core cell scale %g, want the file's 0.01", c2.Options.Scale)
	}
	if c2.Options.Base.Cores != 4 || c1.Options.Base.Cores != 2 {
		t.Fatal("core counts not applied to Base")
	}
}

func names(cells []Cell) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = c.Name
	}
	return out
}

// TestPaperScenarioMatchesDefaultSweep pins scenarios/paper.json to the
// programmatic paper sweep: one cell whose options expand to exactly the
// DefaultOptions job list (full technique x size x benchmark matrix at 4
// cores).
func TestPaperScenarioMatchesDefaultSweep(t *testing.T) {
	f, err := Load("../../scenarios/paper.json")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := f.Expand(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("paper scenario expands to %d cells, want 1", len(cells))
	}
	got := cells[0].Options
	want := experiment.DefaultOptions(1.0)
	if !reflect.DeepEqual(got.Benchmarks, want.Benchmarks) {
		t.Fatalf("benchmarks %v, want %v", got.Benchmarks, want.Benchmarks)
	}
	if !reflect.DeepEqual(got.CacheSizesMB, want.CacheSizesMB) {
		t.Fatalf("sizes %v, want %v", got.CacheSizesMB, want.CacheSizesMB)
	}
	if !reflect.DeepEqual(got.Techniques, want.Techniques) {
		t.Fatalf("techniques %v, want %v", got.Techniques, want.Techniques)
	}
	if got.Scale != 1.0 || got.Seed != 1 || got.Base.Cores != 4 {
		t.Fatalf("scale/seed/cores %g/%d/%d, want 1.0/1/4", got.Scale, got.Seed, got.Base.Cores)
	}
	gotJobs, wantJobs := got.Jobs(), want.Jobs()
	if !reflect.DeepEqual(gotJobs, wantJobs) {
		t.Fatalf("job lists differ: %d vs %d jobs", len(gotJobs), len(wantJobs))
	}
	if len(gotJobs) != 6*4*8 {
		t.Fatalf("paper matrix has %d jobs, want 192 (6 benchmarks x 4 sizes x 8 runs)", len(gotJobs))
	}
}

// goldenCellDigests pins reduced-scale runs of every technique x core-count
// cell of the golden-cells fixture (the scenario-level twin of the
// experiment package's core-count matrix).  Recorded at PR 5.
var goldenCellDigests = map[string]string{
	"golden/c2-seed7": "c188b7b9bbed2e88d7e2acbd5f18c8534e130028a25d3e5b4dadd17841a9b05a",
	"golden/c4-seed7": "7aaa1672ac6dfe7502924f09fba30c13ba147d43d6f1af002ff40963ee1f1772",
	"golden/c8-seed7": "caea71c8fdfaac90d3442a1c94d54aead7a73ca5c8c09fe3b369656960778902",
}

// goldenCellsFixture covers every decay technique at 2, 4 and 8 cores on one
// benchmark and size at reduced scale.
func goldenCellsFixture() File {
	return File{
		Version:    1,
		Name:       "golden",
		Benchmarks: []string{"FMM"},
		L2SizesMB:  []int{2},
		Techniques: []string{"protocol", "decay:8K", "sel_decay:8K", "adaptive:8K"},
		CoreCounts: []int{2, 4, 8},
		Seeds:      []uint64{7},
		Scale:      0.01,
	}
}

func TestPerCellGoldenDigests(t *testing.T) {
	cells, err := goldenCellsFixture().Expand(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(goldenCellDigests) {
		t.Fatalf("expanded %d cells, want %d", len(cells), len(goldenCellDigests))
	}
	for _, c := range cells {
		want, ok := goldenCellDigests[c.Name]
		if !ok {
			t.Fatalf("unexpected cell %q", c.Name)
		}
		sweep, err := runSweep(c.Options, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		got := sweep.Digest()
		t.Logf("%s digest: %s", c.Name, got)
		if got != want {
			t.Errorf("%s: fixed-seed digest changed:\n  got:  %s\n  want: %s\n"+
				"If the change is intentional, update goldenCellDigests.", c.Name, got, want)
		}
	}
}

// TestShardedScenarioMergesByteIdentically runs every cell of a multi-cell
// scenario twice — once unsharded, once as two shards recorded into their
// own result caches and joined by serving the batch from their union — and
// requires bit-identical results and identical rendered report bytes, which
// is what makes `leaksweep -scenario -shard i/n -cache DIRi` followed by
// `-merge 'DIR*'` a faithful distribution of the same experiment.
func TestShardedScenarioMergesByteIdentically(t *testing.T) {
	f := File{
		Version:    1,
		Name:       "shardcheck",
		Benchmarks: []string{"WATER-NS", "mpeg2dec"},
		L2SizesMB:  []int{1, 2},
		Techniques: []string{"protocol", "decay:8K"},
		CoreCounts: []int{2, 4},
		Seeds:      []uint64{7},
		Scale:      0.005,
	}
	cells, err := f.Expand(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("expanded %d cells, want 2", len(cells))
	}
	merged := mergeShards(t, cells, 2)
	for i, c := range cells {
		whole, err := runSweep(c.Options, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		requireSameSweep(t, c.Name, merged[i], whole)
	}
}

// requireSameSweep fails unless got digests and renders byte-identically to
// want.
func requireSameSweep(t *testing.T, name string, got, want *experiment.Sweep) {
	t.Helper()
	if g, w := got.Digest(), want.Digest(); g != w {
		t.Fatalf("%s: merged digest %s != unsharded %s", name, g, w)
	}
	var g, w bytes.Buffer
	if err := experiment.WriteReport(&g, got, "", false); err != nil {
		t.Fatal(err)
	}
	if err := experiment.WriteReport(&w, want, "", false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		t.Fatalf("%s: merged report differs from the unsharded report:\n%s\nvs\n%s", name, g.Bytes(), w.Bytes())
	}
}

// countingBuilds counts constructions of the "counting" test benchmark,
// an FMM generator registered under its own name.
var countingBuilds atomic.Int64

func init() {
	workload.Register("counting", func(scale float64) workload.Generator {
		countingBuilds.Add(1)
		gen, _ := workload.ByName("FMM", scale)
		return gen
	})
}

// TestValidationBuildsNoGenerators pins that validation checks plain names
// with a registry lookup: Parse builds no generator for a plain benchmark
// or a plain mix element, and Expand builds each benchmark exactly once,
// for its core-count and seed-invariance checks.
func TestValidationBuildsNoGenerators(t *testing.T) {
	countingBuilds.Store(0)
	f, err := Parse([]byte(`{"version": 2, "benchmarks": ["counting"],
		"l2_sizes_mb": [1, 2], "techniques": ["decay:8K"], "core_counts": [2, 4], "seeds": [1, 2]}`))
	if err != nil {
		t.Fatal(err)
	}
	if n := countingBuilds.Load(); n != 0 {
		t.Fatalf("Parse built the benchmark %d times, want 0", n)
	}
	if _, err := f.Expand(config.Default()); err != nil {
		t.Fatal(err)
	}
	if n := countingBuilds.Load(); n != 1 {
		t.Fatalf("Expand built the benchmark %d times, want 1", n)
	}

	countingBuilds.Store(0)
	if _, err := Parse([]byte(`{"version": 2, "mixes": [{"name": "duo", "cores": ["counting", "FMM"]}],
		"l2_sizes_mb": [1], "techniques": ["protocol"]}`)); err != nil {
		t.Fatal(err)
	}
	if n := countingBuilds.Load(); n != 0 {
		t.Fatalf("Parse built a mix element %d times, want 0", n)
	}
}
