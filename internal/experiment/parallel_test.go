package experiment

// Parallel-runtime tests: the pool's whole contract is that worker count is
// unobservable in the output.  The property test pins Digest() and the
// rendered report at workers 1/2/4/7 against a serial reference; the
// failure tests pin cancel-on-first-failure and the deterministic
// feed-order-first error; the progress test pins the callback contract; the
// stress test (small matrix, workers far beyond GOMAXPROCS) gives the race
// detector real concurrent simulations to chew on via `make race`.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"cmpleak/internal/config"
	"cmpleak/internal/core"
	"cmpleak/internal/decay"
	"cmpleak/internal/workload"
)

// runSweep runs one unnamed sweep as a one-entry batch through the pool.
func runSweep(opts Options, p Parallelism) (*Sweep, error) {
	sweeps, err := RunParallelAllContext(context.Background(), []NamedOptions{{Options: opts}}, p)
	if err != nil {
		return nil, err
	}
	return sweeps[0], nil
}

// parallelOptions is a reduced matrix that still exercises two benchmarks,
// a baseline per group and two technique families.
func parallelOptions() Options {
	opts := DefaultOptions(0.005)
	opts.Benchmarks = []string{"WATER-NS", "mpeg2dec"}
	opts.CacheSizesMB = []int{1}
	opts.Techniques = []decay.Spec{
		{Kind: decay.KindDecay, DecayCycles: 8 * 1024},
		{Kind: decay.KindSelectiveDecay, DecayCycles: 8 * 1024},
	}
	opts.Seed = 7
	return opts
}

func TestRunParallelByteIdenticalToSerial(t *testing.T) {
	opts := parallelOptions()
	serial, err := runSweep(opts, Parallelism{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantDigest := serial.Digest()
	wantReport := renderReport(t, serial, "", false)
	if wantReport == "" {
		t.Fatal("serial reference rendered an empty report")
	}
	for _, workers := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sweep, err := runSweep(opts, Parallelism{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got := sweep.Digest(); got != wantDigest {
				t.Errorf("digest diverged from serial run:\n  got:  %s\n  want: %s", got, wantDigest)
			}
			if got := renderReport(t, sweep, "", false); got != wantReport {
				t.Errorf("rendered report diverged from serial run (%d vs %d bytes)", len(got), len(wantReport))
			}
		})
	}
}

func TestRunParallelFailureDrainsAndReportsFirst(t *testing.T) {
	defer func(old func(*core.System, config.System, workload.Generator) (core.Result, error)) { runJob = old }(runJob)

	opts := parallelOptions()
	jobs := opts.Jobs()
	// Fail the third job in feed order; every other job succeeds.
	failKey := jobs[2]
	runJob = func(_ *core.System, cfg config.System, _ workload.Generator) (core.Result, error) {
		if cfg.Benchmark == failKey.Benchmark && cfg.Technique.Name() == failKey.Technique {
			return core.Result{}, errors.New("injected failure")
		}
		return core.Result{Label: cfg.Label()}, nil
	}

	for _, workers := range []int{1, 4} {
		sweep, err := runSweep(opts, Parallelism{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: the pool returned nil error despite a failing job", workers)
		}
		if sweep != nil {
			t.Fatalf("workers=%d: failed run returned a partial sweep", workers)
		}
		if !strings.Contains(err.Error(), failKey.String()) {
			t.Errorf("workers=%d: error %q does not name the failed job %s", workers, err, failKey)
		}
	}
}

func TestRunParallelFirstErrorIsFeedOrderDeterministic(t *testing.T) {
	defer func(old func(*core.System, config.System, workload.Generator) (core.Result, error)) { runJob = old }(runJob)

	// Every job fails with an error naming its own configuration; whichever
	// worker finishes first, the reported error must belong to the first
	// job in feed order at any worker count.
	runJob = func(_ *core.System, cfg config.System, _ workload.Generator) (core.Result, error) {
		return core.Result{}, fmt.Errorf("boom: %s", cfg.Label())
	}
	opts := parallelOptions()
	first := opts.Jobs()[0]
	for _, workers := range []int{1, 3, 7} {
		for rep := 0; rep < 3; rep++ {
			_, err := runSweep(opts, Parallelism{Workers: workers})
			if err == nil {
				t.Fatal("all jobs fail, yet the pool returned nil")
			}
			if !strings.Contains(err.Error(), first.String()) {
				t.Fatalf("workers=%d: got error %q, want the feed-order-first job %s",
					workers, err, first)
			}
		}
	}
}

func TestRunParallelProgressEvents(t *testing.T) {
	defer func(old func(*core.System, config.System, workload.Generator) (core.Result, error)) { runJob = old }(runJob)
	runJob = func(_ *core.System, cfg config.System, _ workload.Generator) (core.Result, error) {
		return core.Result{Label: cfg.Label()}, nil
	}

	opts := parallelOptions()
	jobs := opts.Jobs()
	var events []JobEvent
	// The pool serialises Progress calls, so the plain append is the point:
	// the race detector verifies the serialisation promise.
	_, err := runSweep(opts, Parallelism{
		Workers:  3,
		Progress: func(ev JobEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(jobs) {
		t.Fatalf("got %d progress events, want %d", len(events), len(jobs))
	}
	seen := map[Key]int{}
	for i, ev := range events {
		if ev.Done != i+1 {
			t.Errorf("event %d: Done=%d, want completion order %d", i, ev.Done, i+1)
		}
		if ev.Total != len(jobs) {
			t.Errorf("event %d: Total=%d, want %d", i, ev.Total, len(jobs))
		}
		if ev.Err != nil {
			t.Errorf("event %d: unexpected error %v", i, ev.Err)
		}
		if ev.Cell != "" || ev.Sweep != 0 {
			t.Errorf("event %d: cell %q sweep %d, want unlabelled sweep 0", i, ev.Cell, ev.Sweep)
		}
		if ev.Index < 0 || ev.Index >= len(jobs) || jobs[ev.Index] != ev.Key {
			t.Errorf("event %d: Index %d does not locate Key %s in feed order", i, ev.Index, ev.Key)
		}
		seen[ev.Key]++
	}
	for _, k := range jobs {
		if seen[k] != 1 {
			t.Errorf("job %s reported %d times, want exactly once", k, seen[k])
		}
	}
}

func TestRunParallelAllSharesOnePool(t *testing.T) {
	defer func(old func(*core.System, config.System, workload.Generator) (core.Result, error)) { runJob = old }(runJob)

	var mu sync.Mutex
	calls := 0
	runJob = func(_ *core.System, cfg config.System, _ workload.Generator) (core.Result, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return core.Result{Label: cfg.Label()}, nil
	}

	a := parallelOptions()
	b := parallelOptions()
	b.Benchmarks = []string{"FMM"}
	var cells, totals []string
	sweeps, err := RunParallelAllContext(context.Background(),
		[]NamedOptions{{Name: "cell-a", Options: a}, {Name: "cell-b", Options: b}},
		Parallelism{Workers: 4, Progress: func(ev JobEvent) {
			cells = append(cells, ev.Cell)
			totals = append(totals, fmt.Sprintf("%d/%d", ev.Done, ev.Total))
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweeps) != 2 {
		t.Fatalf("got %d sweeps, want 2", len(sweeps))
	}
	wantJobs := len(a.Jobs()) + len(b.Jobs())
	if calls != wantJobs {
		t.Fatalf("pool simulated %d jobs, want %d across both sweeps", calls, wantJobs)
	}
	if len(cells) != wantJobs {
		t.Fatalf("got %d progress events, want %d", len(cells), wantJobs)
	}
	// Done/Total count across the batch, not per sweep.
	if got, want := totals[len(totals)-1], fmt.Sprintf("%d/%d", wantJobs, wantJobs); got != want {
		t.Errorf("last progress event %s, want %s", got, want)
	}
	for si, name := range []string{"cell-a", "cell-b"} {
		opts := []Options{a, b}[si]
		if got, want := len(sweeps[si].Keys()), len(opts.Jobs()); got != want {
			t.Errorf("%s: %d results, want %d", name, got, want)
		}
	}
	seenCell := map[string]bool{}
	for _, c := range cells {
		seenCell[c] = true
	}
	if !seenCell["cell-a"] || !seenCell["cell-b"] {
		t.Errorf("progress events carried cells %v, want both cell-a and cell-b", seenCell)
	}
}

// TestRunParallelRefusesRepeatedCellNames: Reuse, JobEvent.Cell and error
// labels identify a cell by name, so a batch that repeats one — two unnamed
// cells included — is refused before any job is fed or looked up.
func TestRunParallelRefusesRepeatedCellNames(t *testing.T) {
	a := parallelOptions()
	b := parallelOptions()
	b.Seed++
	for _, name := range []string{"", "cell"} {
		looked := 0
		_, err := RunParallelAllContext(context.Background(),
			[]NamedOptions{{Name: name, Options: a}, {Name: name, Options: b}},
			Parallelism{
				Reuse: func(string, Key) (core.Result, bool) { looked++; return core.Result{}, false },
				Progress: func(JobEvent) {
					t.Error("a refused batch ran a job")
				},
			})
		if err == nil || !strings.Contains(err.Error(), "repeats cell name") {
			t.Fatalf("name %q: err = %v, want a repeated-cell-name refusal", name, err)
		}
		if looked != 0 {
			t.Fatalf("name %q: Reuse consulted %d times before the refusal", name, looked)
		}
	}
}

// TestRunParallelRaceStress drives real simulations through a pool with far
// more workers than the matrix strictly needs, so `go test -race` (make
// race, in CI) exercises the queue, the collector and the progress path
// under genuine concurrency.  The digest check keeps it honest: stress must
// not cost determinism.
func TestRunParallelRaceStress(t *testing.T) {
	opts := parallelOptions()
	opts.Scale = 0.002
	serial, err := runSweep(opts, Parallelism{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := serial.Digest()
	events := 0
	sweep, err := runSweep(opts, Parallelism{
		Workers:  16,
		Progress: func(JobEvent) { events++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sweep.Digest(); got != want {
		t.Errorf("stress digest diverged from serial run:\n  got:  %s\n  want: %s", got, want)
	}
	if events != len(opts.Jobs()) {
		t.Errorf("got %d progress events, want %d", events, len(opts.Jobs()))
	}
}
