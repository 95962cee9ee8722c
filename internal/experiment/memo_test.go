package experiment

// Stream-memo tests: each stream key is captured once per batch at any
// worker count, nothing is captured when no two queued jobs share a key,
// no trace outlives the call, a failed or panicking capture runs live, and
// a transient fault while replaying a capture is retried like any other.

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"weak"

	"cmpleak/internal/config"
	"cmpleak/internal/core"
	"cmpleak/internal/faultinject"
	"cmpleak/internal/trace"
	"cmpleak/internal/workload"
)

// captureLog records every capture the pool makes while installed.
type captureLog struct {
	mu    sync.Mutex
	count map[streamKey]int
	files []weak.Pointer[trace.File]
}

// logCaptures wraps captureStreams for the rest of the test.
func logCaptures(t *testing.T) *captureLog {
	t.Helper()
	orig := captureStreams
	t.Cleanup(func() { captureStreams = orig })
	l := &captureLog{count: map[streamKey]int{}}
	captureStreams = func(gen workload.Generator, cfg config.System) (*trace.File, error) {
		f, err := orig(gen, cfg)
		l.mu.Lock()
		defer l.mu.Unlock()
		l.count[streamKeyOf(cfg)]++
		if f != nil {
			l.files = append(l.files, weak.Make(f))
		}
		return f, err
	}
	return l
}

// total returns the number of captures made.
func (l *captureLog) total() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, c := range l.count {
		n += c
	}
	return n
}

// reset forgets the captures made so far.
func (l *captureLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.count = map[streamKey]int{}
	l.files = nil
}

func TestStreamMemoCapturesEachKeyOnce(t *testing.T) {
	log := logCaptures(t)
	opts := goldenOptions()
	for _, workers := range []int{1, 2, 4} {
		log.reset()
		sweep, err := runSweep(opts, Parallelism{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := sweep.Digest(); got != GoldenAnchor {
			t.Fatalf("workers=%d: memoized sweep digest %s, want %s", workers, got, GoldenAnchor)
		}
		if len(log.count) != len(opts.Benchmarks) {
			t.Fatalf("workers=%d: captured %d stream keys, want one per benchmark (%d)",
				workers, len(log.count), len(opts.Benchmarks))
		}
		for k, n := range log.count {
			if n != 1 {
				t.Fatalf("workers=%d: %s captured %d times, want once", workers, k.benchmark, n)
			}
		}
	}
}

func TestStreamMemoHoldsNoTraceAfterReturn(t *testing.T) {
	log := logCaptures(t)
	if _, err := runSweep(goldenOptions(), Parallelism{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if len(log.files) == 0 {
		t.Fatal("the sweep captured nothing")
	}
	runtime.GC()
	for i, wp := range log.files {
		if wp.Value() != nil {
			t.Fatalf("captured trace %d is still reachable after the sweep returned", i)
		}
	}
}

func TestStreamMemoSkipsUnsharedKeys(t *testing.T) {
	log := logCaptures(t)
	run := func(name string, opts Options, reuse func(string, Key) (core.Result, bool)) {
		t.Helper()
		log.reset()
		if _, err := runSweep(opts, Parallelism{Workers: 2, Reuse: reuse}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := log.total(); n != 0 {
			t.Fatalf("%s: captured %d times, want 0", name, n)
		}
	}

	opts := parallelOptions()
	run("warm batch", opts, func(string, Key) (core.Result, bool) { return core.Result{}, true })
	run("one queued job per key", opts, func(_ string, k Key) (core.Result, bool) {
		return core.Result{}, k.Technique != baselineName
	})

	// A recorded trace is seed-invariant and already shared by OpenShared.
	gen, err := workload.ByName("WATER-NS", 0.005)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "water.trc")
	w, closeTrace, err := trace.Create(path, trace.Header{Cores: 4, LineBytes: 64, Benchmark: "WATER-NS"},
		trace.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Capture(gen, 4, opts.Seed, w, trace.CaptureOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := closeTrace(); err != nil {
		t.Fatal(err)
	}
	traced := opts
	traced.Benchmarks = []string{"trace:" + path}
	run("trace benchmark", traced, nil)
}

func TestStreamMemoCaptureFailureRunsLive(t *testing.T) {
	orig := captureStreams
	defer func() { captureStreams = orig }()
	failed := 0
	captureStreams = func(workload.Generator, config.System) (*trace.File, error) {
		failed++
		return nil, errors.New("entry the trace format cannot hold")
	}
	sweep, err := runSweep(goldenOptions(), Parallelism{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if failed == 0 {
		t.Fatal("no capture was attempted")
	}
	if got := sweep.Digest(); got != GoldenAnchor {
		t.Fatalf("live fallback digest %s, want %s", got, GoldenAnchor)
	}
}

// panicGen makes core 1's stream panic on its first batch.
type panicGen struct{ workload.Generator }

func (g panicGen) Streams(cores int, seed uint64) []workload.Stream {
	ss := g.Generator.Streams(cores, seed)
	ss[1] = panicStream{}
	return ss
}

type panicStream struct{}

func (panicStream) NextBatch([]workload.Entry) int { panic("stream bug during capture") }

// TestStreamMemoCapturePanicRunsLive panics a stream inside every capture:
// trace.Capture generates streams on goroutines of its own and re-raises the
// panic on the capturing worker, where captureShared recovers it, so every
// key runs live and the sweep still reproduces the golden digest.
func TestStreamMemoCapturePanicRunsLive(t *testing.T) {
	orig := captureStreams
	defer func() { captureStreams = orig }()
	var attempts atomic.Int32
	captureStreams = func(gen workload.Generator, cfg config.System) (*trace.File, error) {
		attempts.Add(1)
		return orig(panicGen{gen}, cfg)
	}
	sweep, err := runSweep(goldenOptions(), Parallelism{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if attempts.Load() == 0 {
		t.Fatal("no capture was attempted")
	}
	if got := sweep.Digest(); got != GoldenAnchor {
		t.Fatalf("live fallback digest %s, want %s", got, GoldenAnchor)
	}
}

// TestStreamMemoChunkFaultRetried fails one chunk read while the first job
// replays its key's capture: the run must fail transiently (not end on a
// truncated stream), the pool must retry that one job, and the sweep must
// still reproduce the golden digest.
func TestStreamMemoChunkFaultRetried(t *testing.T) {
	shortRetryDelay(t)
	defer faultinject.Disarm()
	opts := goldenOptions()
	log := logCaptures(t)

	// Count the chunk reads the first key's capture makes (Verify reads
	// every chunk once), so the fault can land mid-way through the first
	// job's replay instead of inside the capture.
	cfg := opts.jobConfig(opts.jobs()[0])
	gen, err := cfg.Workload()
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Arm(faultinject.Plan{Specs: []faultinject.Spec{
		{Point: trace.FaultPointChunk, Kind: faultinject.KindError, After: math.MaxUint64},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := captureStreams(gen, cfg); err != nil {
		t.Fatal(err)
	}
	chunks := faultinject.Hits(trace.FaultPointChunk)
	if chunks < 2 {
		t.Fatalf("capture read %d chunks; the test needs at least 2", chunks)
	}
	log.reset()

	if err := faultinject.Arm(faultinject.Plan{Specs: []faultinject.Spec{
		{Point: trace.FaultPointChunk, Kind: faultinject.KindError, After: chunks + chunks/2, Times: 1,
			Transient: true, Msg: "flaky chunk"},
	}}); err != nil {
		t.Fatal(err)
	}
	retried := 0
	sweeps, err := RunParallelAllContext(context.Background(), []NamedOptions{{Options: opts}}, Parallelism{
		Workers: 1,
		Retry:   RetryPolicy{MaxAttempts: 3},
		Progress: func(ev JobEvent) {
			if ev.Attempts > 1 {
				if ev.Attempts != 2 || ev.Index != 0 {
					t.Errorf("job %s (index %d) ran %d attempts", ev.Key, ev.Index, ev.Attempts)
				}
				retried++
			}
		},
	})
	faultinject.Disarm()
	if err != nil {
		t.Fatalf("transient chunk fault defeated the retry policy: %v", err)
	}
	if retried != 1 {
		t.Fatalf("%d jobs retried, want exactly 1", retried)
	}
	if got := sweeps[0].Digest(); got != GoldenAnchor {
		t.Fatalf("digest %s after the retried chunk fault, want %s", got, GoldenAnchor)
	}
	if n := log.total(); n != len(opts.Benchmarks) {
		t.Fatalf("%d captures, want one per benchmark (%d); the fault landed in a capture", n, len(opts.Benchmarks))
	}
}
