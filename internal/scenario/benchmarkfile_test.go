package scenario

// Expand-time resolution of scheme benchmarks: a matrix naming
// "trace:<path>" still validates anywhere, but expanding it on the machine
// that will run it demands the file exist and verify, failing with
// ErrBenchmarkFile before any simulation starts.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cmpleak/internal/config"
	"cmpleak/internal/trace"
	"cmpleak/internal/workload"
)

func scenarioFor(benchmark string) File {
	return File{
		Version:    Version,
		Benchmarks: []string{benchmark},
		L2SizesMB:  []int{1},
		Techniques: []string{"decay:8K"},
	}
}

func writeTempTrace(t *testing.T, corrupt bool) string {
	return writeTempTraceCores(t, corrupt, 4) // scenarios default to 4 cores
}

// writeTempTraceCores records a tiny trace declaring the given core count
// (entries land on core 0 only; the other recorded slots replay empty,
// which is a legal recording).
func writeTempTraceCores(t *testing.T, corrupt bool, cores int) string {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{Cores: cores, LineBytes: 64, Benchmark: "unit"}, trace.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch(0, []workload.Entry{{ComputeInstrs: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if corrupt {
		data[len(data)-1] = 0x03 // invalid op kind in the only payload byte
	}
	path := filepath.Join(t.TempDir(), "bench.trc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestExpandResolvesTraceBenchmark(t *testing.T) {
	path := writeTempTrace(t, false)
	f := scenarioFor("trace:" + path)
	if err := f.Validate(); err != nil {
		t.Fatalf("Validate rejected a scheme benchmark: %v", err)
	}
	cells, err := f.Expand(config.Default())
	if err != nil {
		t.Fatalf("Expand with a real trace file failed: %v", err)
	}
	if len(cells) != 1 {
		t.Fatalf("expanded to %d cells, want 1", len(cells))
	}
}

func TestExpandRejectsMissingTraceFile(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope.trc")
	f := scenarioFor("trace:" + missing)
	// The matrix itself still validates — it may be destined for another
	// machine that does hold the file.
	if err := f.Validate(); err != nil {
		t.Fatalf("Validate rejected a scheme benchmark it cannot check: %v", err)
	}
	_, err := f.Expand(config.Default())
	if !errors.Is(err, ErrBenchmarkFile) {
		t.Fatalf("Expand returned %v, want wrapped ErrBenchmarkFile", err)
	}
	for _, want := range []string{missing, "trace:"} {
		if !bytes.Contains([]byte(err.Error()), []byte(want)) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

func TestExpandRejectsCorruptTraceFile(t *testing.T) {
	path := writeTempTrace(t, true)
	_, err := scenarioFor("trace:" + path).Expand(config.Default())
	if !errors.Is(err, ErrBenchmarkFile) {
		t.Fatalf("Expand returned %v, want wrapped ErrBenchmarkFile", err)
	}
	if !errors.Is(err, trace.ErrCorrupt) {
		// The wrap is %v, not %w, on the inner error by design (the sentinel
		// is ErrBenchmarkFile); the message must still say why.
		if !bytes.Contains([]byte(err.Error()), []byte("corrupt")) {
			t.Fatalf("error %q hides the corruption diagnosis", err)
		}
	}
}

// TestExpandRejectsTraceCoreMismatch is the core/seed-bugfix regression
// test: a trace recorded at one core count must fail at Expand — naming the
// trace path and both counts — whether the scenario asks for more cores
// (which used to run on silently empty streams) or fewer (which used to
// silently drop recorded work).
func TestExpandRejectsTraceCoreMismatch(t *testing.T) {
	for _, tc := range []struct {
		name     string
		recorded int
		request  int
	}{
		{"trace cores below requested", 2, 4},
		{"trace cores above requested", 8, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeTempTraceCores(t, false, tc.recorded)
			f := scenarioFor("trace:" + path)
			f.CoreCounts = []int{tc.request}
			if err := f.Validate(); err != nil {
				t.Fatalf("Validate must not read trace files: %v", err)
			}
			_, err := f.Expand(config.Default())
			if !errors.Is(err, ErrBenchmarkCores) {
				t.Fatalf("Expand returned %v, want wrapped ErrBenchmarkCores", err)
			}
			for _, want := range []string{path, fmt.Sprint(tc.recorded), fmt.Sprint(tc.request)} {
				if !bytes.Contains([]byte(err.Error()), []byte(want)) {
					t.Fatalf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

// TestTraceSeedAxisCollapses pins the seed-bugfix: trace replay ignores the
// seed, so a seeds: [1,2,3] axis over only trace benchmarks would expand
// into three cells with distinct digests and byte-identical results —
// tripling sweep time and polluting the result cache.  Expansion collapses
// the axis to its first seed; mixing in a seed-dependent benchmark keeps
// the full axis.
func TestTraceSeedAxisCollapses(t *testing.T) {
	path := writeTempTrace(t, false)
	f := scenarioFor("trace:" + path)
	f.Seeds = []uint64{1, 2, 3}
	cells, err := f.Expand(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("seed-invariant scenario expanded to %d cells, want 1: %v", len(cells), names(cells))
	}
	if cells[0].Options.Seed != 1 {
		t.Fatalf("collapsed cell keeps seed %d, want the first seed 1", cells[0].Options.Seed)
	}

	f.Benchmarks = append(f.Benchmarks, "WATER-NS")
	cells, err = f.Expand(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("seed-dependent scenario expanded to %d cells, want 3", len(cells))
	}
}

func TestRunCellsFailsBeforeSimulating(t *testing.T) {
	// A multi-cell scenario with one bad trace must fail at expansion, not
	// after sweeping the good cells.
	f := scenarioFor(fmt.Sprintf("trace:%s", filepath.Join(t.TempDir(), "gone.trc")))
	f.CoreCounts = []int{2, 4}
	_, err := f.Expand(config.Default())
	if !errors.Is(err, ErrBenchmarkFile) {
		t.Fatalf("Expand returned %v, want ErrBenchmarkFile", err)
	}
}

// TestReadsFiles pins which scenarios expand by reading a file: a trace
// benchmark, bare or as a mix element, and nothing else.
func TestReadsFiles(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    File
		want bool
	}{
		{"registered names", File{Benchmarks: []string{"FMM", "WATER-NS"}}, false},
		{"stat spec", File{Benchmarks: []string{"stat:ws=64K"}}, false},
		{"bare trace", File{Benchmarks: []string{"FMM", "trace:x.trc"}}, true},
		{"mix of names", File{Benchmarks: []string{"mix:m=FMM|VOLREND"}}, false},
		{"mix benchmark with a trace", File{Benchmarks: []string{"mix:m=FMM|trace:x.trc"}}, true},
		{"mixes entry of names", File{Mixes: []Mix{{Name: "m", Cores: []string{"FMM", "stat:ws=64K"}}}}, false},
		{"mixes entry with a trace", File{Mixes: []Mix{{Name: "m", Cores: []string{"FMM", "trace:x.trc"}}}}, true},
	} {
		if got := tc.f.ReadsFiles(); got != tc.want {
			t.Errorf("%s: ReadsFiles() = %v, want %v", tc.name, got, tc.want)
		}
	}
}
