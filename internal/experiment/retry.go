package experiment

// Structured job failures and the per-job retry policy of the parallel
// runtime.  A worker never lets a fault escape its job: panics become
// JobPanicError values that flow through the pool's deterministic
// feed-order-first error reporting, and errors classified transient (host
// I/O, injected test faults) are retried with deterministic exponential
// backoff before they count as failures.  Permanent errors —
// config validation, corrupt inputs, panics — fail fast: retrying a
// deterministic failure only burns CPU.

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"cmpleak/internal/config"
	"cmpleak/internal/core"
	"cmpleak/internal/faultinject"
	"cmpleak/internal/workload"
)

// FaultPointJob is the fault-injection point at the worker job boundary:
// a KindError spec makes the job fail (transient or permanent per the
// spec), a KindPanic spec exercises the pool's panic containment.
const FaultPointJob = "experiment/job"

// JobPanicError reports a panic recovered at a worker's job boundary.  The
// panic is contained to its job: the pool drains cleanly and returns this
// error (for the earliest panicking job in feed order) instead of crashing
// the process.
type JobPanicError struct {
	// Cell is the sweep label the job belonged to ("" for unnamed sweeps).
	Cell string
	// Key identifies the panicking job.
	Key Key
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error renders the panic with its stack, so a crashing technique or model
// bug surfaces as one structured report.
func (e *JobPanicError) Error() string {
	return fmt.Sprintf("job %s panicked: %v\n%s", e.Key, e.Value, e.Stack)
}

// RetryPolicy retries jobs whose errors DefaultTransient classifies
// transient.  The zero value disables retries (every error is final on the
// first attempt).
type RetryPolicy struct {
	// MaxAttempts bounds total attempts per job, first try included;
	// values <= 1 disable retries.
	MaxAttempts int
}

// retryBaseDelay is the backoff before the first retry; it doubles per
// attempt up to maxRetryDelay.  A variable so tests can shorten it.
var retryBaseDelay = 50 * time.Millisecond

// maxRetryDelay caps the backoff of one retry.
const maxRetryDelay = 5 * time.Second

// DefaultTransient is the retry classification: an error is
// transient iff something in its wrap chain implements Transient() bool and
// reports true — the trace layer marks host-I/O failures that way, corrupt
// files and validation errors carry no marker, and panics are never
// transient.
func DefaultTransient(err error) bool {
	var t interface{ Transient() bool }
	if errors.As(err, &t) {
		return t.Transient()
	}
	return false
}

// maxAttempts normalises MaxAttempts.
func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts <= 1 {
		return 1
	}
	return p.MaxAttempts
}

// backoff returns the delay before retry number attempt (0-based) of the
// job at feed index jobIndex: exponential from retryBaseDelay, capped at
// maxRetryDelay, with jitter in [d/2, d) that is a pure function of
// (jobIndex, attempt), so colliding retries of different jobs spread out
// and two runs of the same failing sweep back off identically.
func backoff(jobIndex, attempt int) time.Duration {
	d := retryBaseDelay
	for i := 0; i < attempt && d < maxRetryDelay; i++ {
		d *= 2
	}
	if d > maxRetryDelay {
		d = maxRetryDelay
	}
	u := splitmix64(uint64(jobIndex)<<32 ^ uint64(attempt))
	frac := float64(u>>11) / float64(1<<53)
	return d/2 + time.Duration(float64(d/2)*frac)
}

// splitmix64 is the SplitMix64 mixer (jitter only; no math/rand, no clock).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// runJobGuarded executes one simulation attempt with the worker's safety
// net: the fault-injection hook fires first (so tests can fail or crash
// exactly this boundary), and any panic — injected or real — is converted
// into a JobPanicError instead of unwinding the pool.
func runJobGuarded(cell string, key Key, sys *core.System, cfg config.System, gen workload.Generator) (res core.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &JobPanicError{Cell: cell, Key: key, Value: v, Stack: debug.Stack()}
		}
	}()
	if faultinject.Enabled() {
		if ferr := faultinject.Hit(FaultPointJob); ferr != nil {
			return core.Result{}, ferr
		}
	}
	return runJob(sys, cfg, gen)
}

// runAttempts drives one job through the retry policy: transient failures
// back off and retry up to MaxAttempts, permanent ones (and panics) return
// immediately.  A cancellation — the caller's ctx or the pool's first-
// failure cancel channel — aborts the backoff and returns the last error.
// *sys is the calling worker's System: every attempt rebuilds it in place
// (a new one when *sys is nil), and a failed or panicked attempt discards
// it, so no attempt or later job runs on a System a failure left behind.
// It reports the result, the number of attempts made, and the final error.
func runAttempts(done <-chan struct{}, cancel <-chan struct{}, cell string, key Key,
	jobIndex int, sys **core.System, cfg config.System, gen workload.Generator, rp RetryPolicy) (core.Result, int, error) {
	attempts := 0
	for {
		if *sys == nil {
			*sys = new(core.System)
		}
		res, err := runJobGuarded(cell, key, *sys, cfg, gen)
		attempts++
		if err == nil {
			return res, attempts, nil
		}
		*sys = nil
		if attempts >= rp.maxAttempts() || !DefaultTransient(err) {
			return core.Result{}, attempts, err
		}
		t := time.NewTimer(backoff(jobIndex, attempts-1))
		select {
		case <-t.C:
		case <-done:
			t.Stop()
			return core.Result{}, attempts, err
		case <-cancel:
			t.Stop()
			return core.Result{}, attempts, err
		}
	}
}
