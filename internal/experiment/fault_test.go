package experiment

// Fault-tolerance tests for the parallel runtime: panics are contained to
// their job and reported deterministically, transient errors retry under
// RetryPolicy and leave the digest untouched, permanent errors fail fast,
// and context cancellation drains the pool cleanly.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cmpleak/internal/config"
	"cmpleak/internal/core"
	"cmpleak/internal/faultinject"
	"cmpleak/internal/workload"
)

// TestJobPanicContained injects a panic at the job boundary of the third
// job: the process must not crash, the pool must drain, and the returned
// error must be a JobPanicError carrying the cell, the key and a stack.
func TestJobPanicContained(t *testing.T) {
	defer faultinject.Disarm()
	opts := parallelOptions()
	for _, workers := range []int{1, 4} {
		if err := faultinject.Arm(faultinject.Plan{Specs: []faultinject.Spec{
			{Point: FaultPointJob, Kind: faultinject.KindPanic, After: 2, Times: 1, Msg: "synthetic model bug"},
		}}); err != nil {
			t.Fatal(err)
		}
		_, err := RunParallelAllContext(context.Background(), []NamedOptions{{Name: "cellA", Options: opts}},
			Parallelism{Workers: workers})
		faultinject.Disarm()
		if err == nil {
			t.Fatalf("workers=%d: injected panic did not fail the sweep", workers)
		}
		var pe *JobPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: error %T is not a JobPanicError: %v", workers, err, err)
		}
		if pe.Cell != "cellA" {
			t.Fatalf("workers=%d: panic attributed to cell %q, want cellA", workers, pe.Cell)
		}
		if !strings.Contains(fmt.Sprint(pe.Value), "synthetic model bug") {
			t.Fatalf("workers=%d: panic value %v lost the original message", workers, pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "runJobGuarded") {
			t.Fatalf("workers=%d: stack trace does not show the job boundary", workers)
		}
	}
}

// TestPanicErrorDeterministicAcrossWorkers arms a panic on every job: the
// reported error must name the first job in feed order no matter the worker
// count (temporal completion order must not leak).
func TestPanicErrorDeterministicAcrossWorkers(t *testing.T) {
	defer faultinject.Disarm()
	opts := parallelOptions()
	var msgs []string
	for _, workers := range []int{1, 2, 8} {
		if err := faultinject.Arm(faultinject.Plan{Specs: []faultinject.Spec{
			{Point: FaultPointJob, Kind: faultinject.KindPanic, Msg: "every job"},
		}}); err != nil {
			t.Fatal(err)
		}
		_, err := runSweep(opts, Parallelism{Workers: workers})
		faultinject.Disarm()
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		var pe *JobPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: %T is not a JobPanicError", workers, err)
		}
		if pe.Key != opts.Jobs()[0] {
			t.Fatalf("workers=%d: reported job %s, want feed-order first %s",
				workers, pe.Key, opts.Jobs()[0])
		}
		msgs = append(msgs, pe.Key.String())
	}
	for i := 1; i < len(msgs); i++ {
		if msgs[i] != msgs[0] {
			t.Fatalf("error identity varies with worker count: %v", msgs)
		}
	}
}

// TestRetryTransientRecovers injects two transient failures at the job
// boundary; with MaxAttempts=4 the sweep must succeed and digest exactly as
// a clean run, and the progress events must record the extra attempts.
func TestRetryTransientRecovers(t *testing.T) {
	shortRetryDelay(t)
	defer faultinject.Disarm()
	opts := parallelOptions()
	clean, err := runSweep(opts, Parallelism{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	if err := faultinject.Arm(faultinject.Plan{Specs: []faultinject.Spec{
		{Point: FaultPointJob, Kind: faultinject.KindError, Times: 2, Transient: true, Msg: "flaky read"},
	}}); err != nil {
		t.Fatal(err)
	}
	var extraAttempts atomic.Int64
	got, err := runSweep(opts, Parallelism{
		Workers: 2,
		Retry:   RetryPolicy{MaxAttempts: 4},
		Progress: func(ev JobEvent) {
			if ev.Err == nil && ev.Attempts > 1 {
				extraAttempts.Add(int64(ev.Attempts - 1))
			}
		},
	})
	faultinject.Disarm()
	if err != nil {
		t.Fatalf("transient faults defeated the retry policy: %v", err)
	}
	if got.Digest() != clean.Digest() {
		t.Fatal("retried sweep digest diverged from the clean run")
	}
	if extraAttempts.Load() != 2 {
		t.Fatalf("progress recorded %d retries, want 2", extraAttempts.Load())
	}
}

// TestPermanentErrorFailsFast injects a non-transient error: even with a
// generous retry policy the job must fail on its first attempt.
func TestPermanentErrorFailsFast(t *testing.T) {
	defer faultinject.Disarm()
	if err := faultinject.Arm(faultinject.Plan{Specs: []faultinject.Spec{
		{Point: FaultPointJob, Kind: faultinject.KindError, Msg: "corrupt config"},
	}}); err != nil {
		t.Fatal(err)
	}
	var sawAttempts int
	_, err := runSweep(parallelOptions(), Parallelism{
		Workers: 2,
		Retry:   RetryPolicy{MaxAttempts: 5},
		Progress: func(ev JobEvent) {
			if ev.Err != nil && sawAttempts == 0 {
				sawAttempts = ev.Attempts
			}
		},
	})
	if err == nil {
		t.Fatal("permanent fault did not fail the sweep")
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("error %v lost the injected sentinel", err)
	}
	if sawAttempts != 1 {
		t.Fatalf("permanent error ran %d attempts, want fail-fast 1", sawAttempts)
	}
}

// TestRetryExhaustionReportsLastError proves a persistently transient fault
// still fails after MaxAttempts, reporting the transient error.
func TestRetryExhaustionReportsLastError(t *testing.T) {
	shortRetryDelay(t)
	defer faultinject.Disarm()
	if err := faultinject.Arm(faultinject.Plan{Specs: []faultinject.Spec{
		{Point: FaultPointJob, Kind: faultinject.KindError, Transient: true, Msg: "always down"},
	}}); err != nil {
		t.Fatal(err)
	}
	var worst int
	_, err := runSweep(parallelOptions(), Parallelism{
		Workers: 1,
		Retry:   RetryPolicy{MaxAttempts: 3},
		Progress: func(ev JobEvent) {
			if ev.Attempts > worst {
				worst = ev.Attempts
			}
		},
	})
	if err == nil {
		t.Fatal("exhausted retries did not fail the sweep")
	}
	if !DefaultTransient(err) {
		t.Fatalf("final error %v lost its transient classification", err)
	}
	if worst != 3 {
		t.Fatalf("deepest job made %d attempts, want MaxAttempts=3", worst)
	}
}

// TestContextCancellation cancels mid-sweep: the pool must drain without
// running every job and return a cancellation error that wraps
// context.Canceled and says how far it got.
func TestContextCancellation(t *testing.T) {
	opts := parallelOptions()
	total := len(opts.Jobs())
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	_, err := RunParallelAllContext(ctx, []NamedOptions{{Options: opts}}, Parallelism{
		Workers: 1,
		Progress: func(ev JobEvent) {
			ran++
			if ran == 1 {
				cancel() // first completion cancels the rest
			}
		},
	})
	if err == nil {
		t.Fatal("canceled sweep returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if ran >= total {
		t.Fatalf("all %d jobs ran despite cancellation after the first", total)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("of %d jobs", total)) {
		t.Fatalf("cancellation error %q does not report progress", err)
	}
}

// TestContextTimeout exercises the deadline path end to end.
func TestContextTimeout(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	_, err := RunParallelAllContext(ctx, []NamedOptions{{Options: parallelOptions()}}, Parallelism{Workers: 2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired context returned %v, want DeadlineExceeded", err)
	}
}

// TestBackoffDeterministicAndBounded pins the jitter contract: pure in
// (jobIndex, attempt), exponential growth from 50ms capped at 5s, within
// [d/2, d).
func TestBackoffDeterministicAndBounded(t *testing.T) {
	for attempt := 0; attempt < 10; attempt++ {
		d1 := backoff(3, attempt)
		d2 := backoff(3, attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff not deterministic (%s vs %s)", attempt, d1, d2)
		}
		full := 50 * time.Millisecond << uint(attempt)
		if full > 5*time.Second {
			full = 5 * time.Second
		}
		if d1 < full/2 || d1 >= full {
			t.Fatalf("attempt %d: backoff %s outside [%s, %s)", attempt, d1, full/2, full)
		}
	}
	if backoff(3, 1) == backoff(4, 1) {
		t.Fatal("different jobs share identical jitter; collisions will not spread")
	}
}

// shortRetryDelay shortens the retry backoff for the calling test.
func shortRetryDelay(t *testing.T) {
	orig := retryBaseDelay
	retryBaseDelay = time.Millisecond
	t.Cleanup(func() { retryBaseDelay = orig })
}

// TestRetryOnRealJobFailure drives the retry machinery through runJob
// itself (not the fault point): a stubbed runJob failing transiently twice
// must still produce the clean sweep.
func TestRetryOnRealJobFailure(t *testing.T) {
	shortRetryDelay(t)
	opts := parallelOptions()
	clean, err := runSweep(opts, Parallelism{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	orig := runJob
	defer func() { runJob = orig }()
	var failures atomic.Int64
	runJob = func(s *core.System, cfg config.System, gen workload.Generator) (core.Result, error) {
		if failures.Add(1) <= 2 {
			return core.Result{}, transientTestError{}
		}
		return orig(s, cfg, gen)
	}
	got, err := runSweep(opts, Parallelism{
		Workers: 2,
		Retry:   RetryPolicy{MaxAttempts: 3},
	})
	if err != nil {
		t.Fatalf("stubbed transient failures were not retried: %v", err)
	}
	if got.Digest() != clean.Digest() {
		t.Fatal("digest diverged after retries of a stubbed runJob")
	}
}

type transientTestError struct{}

func (transientTestError) Error() string   { return "transient test failure" }
func (transientTestError) Transient() bool { return true }
