package scenario

// Golden pins for the schema-v2 scenario files shipped with the repo:
// scenarios/mixed.json (heterogeneous per-core mixes) and
// scenarios/stat.json (the statistical workload family).  The expansion
// digests pin the exact job lists; the per-cell digests pin the simulated
// results, so any drift in mix seeding, address windows or the stat
// generator's derivation shows up as a diff against a recorded constant.

import (
	"testing"

	"cmpleak/internal/config"
	"cmpleak/internal/experiment"
)

const (
	mixedExpansionDigest = "6276bb2ec776a7ff8c1106b38472bf0efad7287e85dbc095b68aa41e312922bc"
	statExpansionDigest  = "180df31cff7216f3a08e1955c824166af5547d0b5cd6ac353ab82a953d3502f8"
)

var mixedCellDigests = map[string]string{
	"mixed/c4-seed7": "377a2d58a44dbd529446e283fed87404e6cbf2317b02a14cbcb35295d535496d",
}

var statCellDigests = map[string]string{
	"stat/c2-seed7": "416b087c8756f4819b4945c16d35fe18e4e54f0f07b47f5a4de4341f5c33505d",
	"stat/c4-seed7": "93eb048036549ca56f8f81447f23e8dd8af37dbdc3faf416df813be051af98f0",
}

func loadShipped(t *testing.T, name string) []Cell {
	t.Helper()
	f, err := Load("../../scenarios/" + name)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := f.Expand(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

func TestMixedScenarioGoldenExpansion(t *testing.T) {
	for _, tc := range []struct {
		file, want string
	}{
		{"mixed.json", mixedExpansionDigest},
		{"stat.json", statExpansionDigest},
	} {
		cells := loadShipped(t, tc.file)
		got := expansionDigest(cells)
		t.Logf("%s expansion digest: %s", tc.file, got)
		if got != tc.want {
			t.Errorf("%s expansion digest changed:\n  got:  %s\n  want: %s\n"+
				"If the change is intentional, update the recorded constant.", tc.file, got, tc.want)
		}
	}
}

func runCellDigests(t *testing.T, file string, want map[string]string) {
	t.Helper()
	cells := loadShipped(t, file)
	if len(cells) != len(want) {
		t.Fatalf("%s expanded to %d cells, want %d: %v", file, len(cells), len(want), names(cells))
	}
	for _, c := range cells {
		wantDigest, ok := want[c.Name]
		if !ok {
			t.Fatalf("%s: unexpected cell %q", file, c.Name)
		}
		sweep, err := runSweep(c.Options, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		got := sweep.Digest()
		t.Logf("%s digest: %s", c.Name, got)
		if got != wantDigest {
			t.Errorf("%s: fixed-seed digest changed:\n  got:  %s\n  want: %s\n"+
				"If the change is intentional, update the recorded constant.", c.Name, got, wantDigest)
		}
	}
}

func TestMixedScenarioPerCellGoldenDigests(t *testing.T) {
	runCellDigests(t, "mixed.json", mixedCellDigests)
}

func TestStatScenarioPerCellGoldenDigests(t *testing.T) {
	runCellDigests(t, "stat.json", statCellDigests)
}

// TestMixedScenarioDeterministicAcrossWorkers pins that heterogeneous mixes
// stay byte-identical under the parallel sweep runtime: the worker count
// must never leak into results.
func TestMixedScenarioDeterministicAcrossWorkers(t *testing.T) {
	cells := loadShipped(t, "mixed.json")
	opts := cells[0].Options
	base, err := runSweep(opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := base.Digest()
	for _, workers := range []int{1, 2, 4, 7} {
		sweep, err := runSweep(opts, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := sweep.Digest(); got != want {
			t.Fatalf("workers=%d digest %s != sequential %s", workers, got, want)
		}
	}
}

// TestMixedScenarioShardsMergeByteIdentically extends the shard-merge
// guarantee to mix cells: splitting a mixed-workload cell across shards and
// merging reproduces the unsharded sweep bit for bit.
func TestMixedScenarioShardsMergeByteIdentically(t *testing.T) {
	cells := loadShipped(t, "mixed.json")
	whole, err := runSweep(cells[0].Options, 0)
	if err != nil {
		t.Fatal(err)
	}
	var shards []experiment.ShardFile
	for i := 0; i < 2; i++ {
		opts := cells[0].Options
		opts.ShardIndex, opts.ShardCount = i, 2
		part, err := runSweep(opts, 0)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		shards = append(shards, part.Snapshot())
	}
	merged, err := experiment.MergeShards(shards...)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := merged.Digest(), whole.Digest(); got != want {
		t.Fatalf("merged digest %s != unsharded %s", got, want)
	}
	if got, want := merged.Figure5a().Markdown(), whole.Figure5a().Markdown(); got != want {
		t.Fatalf("merged report differs from the unsharded report:\n%s\nvs\n%s", got, want)
	}
}
