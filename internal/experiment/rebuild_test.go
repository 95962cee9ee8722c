package experiment

// A pool worker rebuilds one core.System in place for every job instead of
// building a new one (core.System.Rebuild).  These tests pin that reuse is
// invisible: a rebuilt System returns the Result — every hashed field — or
// the error a new System returns for the same job, whatever ran on it
// before, and a worker discards its System after a failed attempt.

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"cmpleak/internal/config"
	"cmpleak/internal/core"
	"cmpleak/internal/decay"
	"cmpleak/internal/trace"
	"cmpleak/internal/workload"
)

// panicAfterGen makes core 1's stream panic once it has handed out batches
// batches, so the run panics with the System mid-simulation.
type panicAfterGen struct {
	workload.Generator
	batches int
}

func (g panicAfterGen) Streams(cores int, seed uint64) []workload.Stream {
	ss := g.Generator.Streams(cores, seed)
	ss[1] = &panicAfterStream{Stream: ss[1], left: g.batches}
	return ss
}

type panicAfterStream struct {
	workload.Stream
	left int
}

func (s *panicAfterStream) NextBatch(buf []workload.Entry) int {
	if s.left == 0 {
		panic("stream bug mid-run")
	}
	s.left--
	return s.Stream.NextBatch(buf)
}

// corruptLastChunk records cfg's streams into an in-memory trace whose last
// chunk — one entry appended to the last core's stream — carries an invalid
// op kind, so replay fails only when that core reaches the end of its
// stream, after every other core has finished.
func corruptLastChunk(t *testing.T, cfg config.System) workload.Generator {
	t.Helper()
	gen, err := cfg.Workload()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{Cores: cfg.Cores, LineBytes: cfg.L2.LineBytes, Benchmark: gen.Name()},
		trace.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Capture(gen, cfg.Cores, cfg.Seed, w, trace.CaptureOptions{}); err != nil {
		t.Fatal(err)
	}
	// Flush writes every pending chunk, so the one-entry chunk is framed
	// last and its one payload byte is the file's last byte.
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch(cfg.Cores-1, []workload.Entry{{ComputeInstrs: 5}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-1] = 0x03 // compute 0, op 3 (invalid)
	f, err := trace.New(data)
	if err != nil {
		t.Fatal(err)
	}
	return f.Generator()
}

// runGuarded runs the job on s (rebuilt) or on a new System (s nil) and
// returns its Result and error, a panic included as an error.
func runGuarded(s *core.System, cfg config.System, gen workload.Generator) (res core.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	if s == nil {
		if s, err = core.NewSystemFrom(cfg, gen); err != nil {
			return core.Result{}, err
		}
		return s.Run()
	}
	return runJob(s, cfg, gen)
}

// TestRebuiltSystemMatchesNew rebuilds one System through jobs that change
// the L2 size both ways, every technique family, the benchmark, and that
// fail mid-run (MaxCycles, a corrupt trace chunk, a panicking stream).
// After each, the rebuilt System's Result or error must equal a new
// System's for the same job — also for the jobs that follow a failure,
// which the pool itself would run on a new System.
func TestRebuiltSystemMatchesNew(t *testing.T) {
	// At this scale decay:64K turns lines off and causes decay-induced
	// misses, so the decay bookkeeping and the decayed-block set carry
	// state from one job to the next.
	const scale = 0.05
	job := func(bench string, sizeMB int, spec decay.Spec) config.System {
		cfg := config.Default().WithBenchmark(bench).WithTotalL2MB(sizeMB).WithTechnique(spec)
		cfg.WorkloadScale, cfg.Seed = scale, 7
		return cfg
	}
	baseline := decay.Spec{}
	decay64K := decay.Spec{Kind: decay.KindDecay, DecayCycles: 64 * 1024}
	sel128K := decay.Spec{Kind: decay.KindSelectiveDecay, DecayCycles: 128 * 1024}
	protocol := decay.Spec{Kind: decay.KindProtocol}

	limited := job("WATER-NS", 1, decay64K)
	limited.MaxCycles = 20000
	corrupt := job("FMM", 2, sel128K)
	panicking := job("WATER-NS", 8, decay64K)

	jobs := []struct {
		name    string
		cfg     config.System
		gen     func() workload.Generator // nil: cfg.Workload()
		wantErr string                    // "" when the job must succeed
	}{
		{name: "WATER-NS/8MB/baseline", cfg: job("WATER-NS", 8, baseline)},
		{name: "WATER-NS/1MB/decay64K", cfg: job("WATER-NS", 1, decay64K)},
		{name: "WATER-NS/8MB/sel_decay128K", cfg: job("WATER-NS", 8, sel128K)},
		{name: "FMM/1MB/protocol", cfg: job("FMM", 1, protocol)},
		{name: "MaxCycles", cfg: limited, wantErr: "exceeded MaxCycles"},
		{name: "FMM/8MB/decay64K", cfg: job("FMM", 8, decay64K)},
		{name: "corrupt chunk", cfg: corrupt, wantErr: "stream of core 3",
			gen: func() workload.Generator { return corruptLastChunk(t, corrupt) }},
		{name: "FMM/2MB/sel_decay128K", cfg: job("FMM", 2, sel128K)},
		{name: "panicking stream", cfg: panicking, wantErr: "stream bug mid-run",
			gen: func() workload.Generator {
				gen, err := panicking.Workload()
				if err != nil {
					t.Fatal(err)
				}
				return panicAfterGen{gen, 20}
			}},
		{name: "WATER-NS/1MB/baseline", cfg: job("WATER-NS", 1, baseline)},
		{name: "WATER-NS/8MB/adaptive", cfg: job("WATER-NS", 8, decay.Spec{Kind: decay.KindAdaptive, DecayCycles: 64 * 1024})},
	}
	rebuilt := new(core.System)
	for _, j := range jobs {
		gen := func() workload.Generator {
			if j.gen == nil {
				return nil
			}
			return j.gen()
		}
		want, wantErr := runGuarded(nil, j.cfg, gen())
		got, gotErr := runGuarded(rebuilt, j.cfg, gen())
		switch {
		case j.wantErr == "" && wantErr != nil:
			t.Fatalf("%s: new System failed: %v", j.name, wantErr)
		case j.wantErr != "" && (wantErr == nil || !strings.Contains(wantErr.Error(), j.wantErr)):
			t.Fatalf("%s: new System returned %v, want an error containing %q", j.name, wantErr, j.wantErr)
		case fmt.Sprint(gotErr) != fmt.Sprint(wantErr):
			t.Fatalf("%s: rebuilt System returned error %v, a new one %v", j.name, gotErr, wantErr)
		case !reflect.DeepEqual(got, want):
			t.Fatalf("%s: rebuilt System's result differs from a new one's:\n  rebuilt: %+v\n  new:     %+v", j.name, got, want)
		case j.name == "WATER-NS/1MB/decay64K" && want.DecayInducedMisses == 0:
			t.Fatalf("fixture broken: %s caused no decay-induced miss", j.name)
		}
	}
}

// TestWorkerDropsSystemAfterFailure runs a sweep on one worker whose second
// job fails transiently once, after its simulation ran: every attempt but
// the retry rebuilds the same System, the retry gets a new one (which the
// jobs after it reuse), and the digest is the clean sweep's.
func TestWorkerDropsSystemAfterFailure(t *testing.T) {
	shortRetryDelay(t)
	opts := parallelOptions()
	clean, err := runSweep(opts, Parallelism{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	orig := runJob
	defer func() { runJob = orig }()
	var (
		systems []*core.System
		calls   atomic.Int64
	)
	runJob = func(s *core.System, cfg config.System, gen workload.Generator) (core.Result, error) {
		systems = append(systems, s)
		res, err := orig(s, cfg, gen)
		if calls.Add(1) == 2 && err == nil {
			return core.Result{}, transientTestError{}
		}
		return res, err
	}
	got, err := runSweep(opts, Parallelism{Workers: 1, Retry: RetryPolicy{MaxAttempts: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != clean.Digest() {
		t.Fatal("digest diverged from the clean sweep's")
	}
	if len(systems) != opts.NumJobs()+1 {
		t.Fatalf("%d attempts, want %d jobs plus one retry", len(systems), opts.NumJobs())
	}
	for i := 1; i < len(systems); i++ {
		if changed := systems[i] != systems[i-1]; changed != (i == 2) {
			t.Fatalf("attempt %d ran on System %p after %p; only the retry (attempt 2) gets a new one",
				i, systems[i], systems[i-1])
		}
	}
}
