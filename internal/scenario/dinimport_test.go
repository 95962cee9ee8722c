package scenario

// End-to-end pin of the external-trace import path: a din text trace is
// imported into the binary format, named as a "trace:" benchmark in a
// schema-v2 scenario, expanded, and swept — and the result digest is a
// recorded constant.  The test chdirs into a temp dir so the benchmark key
// ("trace:din.trc") is relative and the pinned digest is path-independent.

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"cmpleak/internal/config"
	"cmpleak/internal/trace"
)

// dinGoldenDigest pins the sweep over the generated din fixture below.
// Recorded when din import landed (PR 10).
const dinGoldenDigest = "45de1e5b3f9f7a1e8b010363138bda6edb5b8aea12d5f44cd1e76636dbb850d3"

// dinFixture deterministically renders a small din text trace: interleaved
// fetch runs and data references over a footprint with reuse, so the replay
// produces non-trivial cache behaviour without any randomness.
func dinFixture() string {
	var b strings.Builder
	for i := 0; i < 6000; i++ {
		for f := 0; f < i%4; f++ {
			fmt.Fprintf(&b, "2 %x\n", 0x400000+uint64(i*4+f))
		}
		addr := 0x10000 + uint64((i*i*7)%(1<<14))*16
		label := 0
		if i%5 == 0 {
			label = 1
		}
		fmt.Fprintf(&b, "%d %x\n", label, addr)
	}
	return b.String()
}

func TestDinImportedTraceSweepsToGoldenDigest(t *testing.T) {
	t.Chdir(t.TempDir())
	w, closeAll, err := trace.Create("din.trc", trace.Header{Cores: 2, LineBytes: 64, Benchmark: "din"}, trace.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := trace.ImportDin(strings.NewReader(dinFixture()), w)
	if err != nil {
		t.Fatal(err)
	}
	if err := closeAll(); err != nil {
		t.Fatal(err)
	}
	if counts[0]+counts[1] != 6000 {
		t.Fatalf("imported %d entries, want the fixture's 6000 references", counts[0]+counts[1])
	}

	f := File{
		Version:    Version,
		Name:       "din",
		Benchmarks: []string{"trace:din.trc"},
		L2SizesMB:  []int{1},
		Techniques: []string{"protocol", "decay:8K"},
		CoreCounts: []int{2},
		Seeds:      []uint64{1, 2}, // trace replay is seed-invariant: must collapse
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	cells, err := f.Expand(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("expanded to %d cells, want 1 (seed axis must collapse): %v", len(cells), names(cells))
	}
	sweep, err := runSweep(cells[0].Options, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := sweep.Digest()
	t.Logf("din sweep digest: %s", got)
	if got != dinGoldenDigest {
		t.Errorf("din round-trip digest changed:\n  got:  %s\n  want: %s\n"+
			"If the change is intentional, update dinGoldenDigest.", got, dinGoldenDigest)
	}
	if _, err := os.Stat("din.trc"); err != nil {
		t.Fatalf("imported trace vanished: %v", err)
	}
}
