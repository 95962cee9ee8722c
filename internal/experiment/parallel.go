package experiment

// The in-process parallel sweep runtime: a goroutine worker pool that runs
// the jobs of one or more sweeps concurrently and reassembles the results
// into the exact Sweep a serial run would have produced.
//
// The simulation kernel is single-threaded by design (ROADMAP: determinism
// over intra-run parallelism), so the parallelism unit is the job — one
// (benchmark, size, technique) simulation.  Jobs are independent: each
// builds its configuration from the sweep's immutable Options, so N workers
// hold N systems and share nothing but the job queue, the result collector
// and the read-only reference streams of jobs with the same stream key
// (memo.go).  Each worker owns one core.System for the length of the call
// and rebuilds it in place for every job it runs (core.System.Rebuild), so
// a sweep reuses a worker's L2 arrays, engine nodes and tables instead of
// allocating — and collecting — a System per job; a rebuilt System returns
// exactly the Result a new one would.  Because every job is deterministic
// in isolation, the assembled Sweep — Digest(), figures, rendered report —
// is byte-identical whatever the worker count or completion order; the
// golden anchors pin that.
//
// Fault tolerance (PR 8) lives at the job boundary.  A panicking job is
// recovered inside its worker and becomes a JobPanicError — the pool drains
// cleanly and reports it like any other failure instead of crashing the
// process.  Errors classified transient (host I/O, injected faults) retry
// under Parallelism.Retry with seeded-deterministic backoff before counting
// as failures.  RunParallelAllContext threads a context.Context through the
// feed, the workers and the retry backoffs, so callers (leaksweep's signal
// handler) can cancel: in-flight jobs finish, queued ones are skipped, and
// the pool returns a cancellation error naming how far it got.
//
// Error handling preserves the cancel-on-first-failure contract of the
// original serial pool: the first failure stops the feed, workers
// drain the queue without simulating the jobs fed after the earliest
// failure, and the returned error is the failure of the *earliest job in
// feed order* among those that failed — temporal completion order never
// leaks into the API, so a failing sweep reports the same error at any
// worker count.  Jobs fed before the earliest failure still run (they were
// already handed to workers), so a failing job earlier in feed order is
// never skipped in favour of a later one that happened to fail first.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"cmpleak/internal/config"
	"cmpleak/internal/core"
)

// Parallelism configures the worker pool of RunParallelAllContext.
type Parallelism struct {
	// Workers is the number of concurrent simulation workers.  Each owns
	// one core.System for the length of the call and rebuilds it in place
	// for each of its jobs; a job that fails or panics makes its worker
	// discard the System and start the next attempt or job on a new one.
	// Zero or negative means runtime.GOMAXPROCS(0); the pool never starts
	// more workers than jobs.
	Workers int
	// Progress, when non-nil, is called once per completed job — success or
	// failure — from the pool's collector, serialised (never concurrently)
	// and in completion order.  It must not call back into the experiment
	// layer.  Jobs skipped after a failure cancels the sweep produce no
	// event, and neither do jobs satisfied by Reuse.
	Progress func(JobEvent)
	// Retry replays jobs whose errors are classified transient; the zero
	// value fails every job on its first error.
	Retry RetryPolicy
	// Reuse, when non-nil, is consulted once per job before it is queued: a
	// hit places the recorded result straight into the job's slot and the
	// job never runs — the result cache (resultcache.Store.ReuseFor) serves
	// already-completed jobs this way.  Reused jobs are excluded from
	// Done/Total.
	Reuse func(cell string, key Key) (core.Result, bool)
}

// JobEvent is one progress notification: a job finished (or failed).
type JobEvent struct {
	// Cell is the label of the sweep the job belongs to ("" for an unnamed
	// sweep) and Sweep its index in the batch.
	Cell  string
	Sweep int
	// Key identifies the job; Index is its position in the sweep's feed
	// order (Options.Jobs() order).
	Key   Key
	Index int
	// Err is the job's failure, nil on success.
	Err error
	// Result is the job's result on success (zero on failure); callers
	// write it through to the result cache from this event.
	Result core.Result
	// Done counts jobs completed across the whole batch, this one included;
	// Total is the batch's job count, so Done == Total marks the last event.
	// Jobs satisfied by Reuse are not counted.
	Done  int
	Total int
	// Attempts is how many times the job ran (1 = no retries).
	Attempts int
	// Elapsed is the wall time of this job's simulation, retries included.
	Elapsed time.Duration
}

// NamedOptions labels one sweep of a RunParallelAllContext batch (scenario
// cells carry their cell name here).
type NamedOptions struct {
	Name    string
	Options Options
}

// RunParallelAllContext is the one sweep entry point: it executes the jobs
// of every sweep in cells through one shared worker pool and returns one
// Sweep per entry, in input order, each byte-identical to running that
// sweep alone with one worker.  Flattening the batch into a single queue
// keeps an N-core box saturated even when individual sweeps hold fewer jobs
// than workers — multi-cell scenarios fan out through exactly this path,
// and a single sweep is a one-entry batch.  The first failing job cancels
// the whole batch; when ctx is canceled, in-flight jobs finish, queued jobs
// are skipped, and the pool returns a cancellation error naming how far it
// got.  Cell names must be distinct (two unnamed cells repeat ""): Reuse,
// JobEvent.Cell and error labels identify a cell by its name.
//
// Each worker goroutine owns one core.System, built on its first job and
// rebuilt in place (core.System.Rebuild) for every later one, so the
// storage of a batch is one System per worker, sized for the largest job
// that worker ran; it becomes garbage when the call returns.  Nothing of a
// System outlives the batch or passes between workers.
func RunParallelAllContext(ctx context.Context, cells []NamedOptions, p Parallelism) ([]*Sweep, error) {
	names := make(map[string]bool, len(cells))
	for i := range cells {
		if names[cells[i].Name] {
			return nil, fmt.Errorf("experiment: batch repeats cell name %q", cells[i].Name)
		}
		names[cells[i].Name] = true
		if err := cells[i].Options.Validate(); err != nil {
			if cells[i].Name != "" {
				return nil, fmt.Errorf("%s: %w", cells[i].Name, err)
			}
			return nil, err
		}
	}

	// Flatten every sweep's feed-order job list into one queue; results go
	// straight into their sweep's feed-order slot, so the assembled sweeps
	// never depend on completion order.  Jobs the Reuse hook satisfies fill
	// their slot here and never enter the queue.
	type flatJob struct {
		sweep, index int
		key          Key
		shared       *sharedStreams // nil: no other queued job shares the streams
	}
	var (
		flat []flatJob
		cfgs []config.System // flat[i]'s configuration
	)
	out := make([]*Sweep, len(cells))
	for si := range cells {
		opts := &cells[si].Options
		js := opts.jobs()
		out[si] = newSweep(*opts, js)
		for ji, j := range js {
			if p.Reuse != nil {
				if res, ok := p.Reuse(cells[si].Name, j.key); ok {
					out[si].res[ji] = res
					continue
				}
			}
			flat = append(flat, flatJob{sweep: si, index: ji, key: j.key})
			cfgs = append(cfgs, opts.jobConfig(j))
		}
	}
	// Jobs that read the same reference streams share one in-memory capture
	// of them (memo.go).
	for i, s := range shareStreams(cfgs) {
		flat[i].shared = s
	}

	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(flat) {
		workers = len(flat)
	}

	jobErrs := make([]error, len(flat))

	var (
		mu     sync.Mutex
		wg     sync.WaitGroup
		failed bool
		first  int // feed index of the earliest failure, once failed
		done   int
	)
	cancel := make(chan struct{}) // closed under mu on the first failure
	jobCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The worker's System, rebuilt in place for each of its jobs
			// (runAttempts discards it after a failure); garbage once the
			// batch returns.
			var sys *core.System
			for fi := range jobCh {
				mu.Lock()
				stop := failed && fi > first
				mu.Unlock()
				if stop || ctx.Err() != nil {
					// Drain without simulating: the job was fed after a
					// failure earlier in feed order closed the cancel
					// channel (or the caller's context was canceled).
					continue
				}
				fj := flat[fi]
				start := time.Now()
				gen := fj.shared.generator(cfgs[fi])
				res, attempts, err := runAttempts(ctx.Done(), cancel,
					cells[fj.sweep].Name, fj.key, fi, &sys, cfgs[fi], gen, p.Retry)
				elapsed := time.Since(start)

				mu.Lock()
				fj.shared.release()
				if err != nil {
					jobErrs[fi] = fmt.Errorf("experiment: %s: %w", fj.key, err)
					if !failed {
						failed, first = true, fi
						close(cancel)
					} else if fi < first {
						first = fi
					}
				} else {
					out[fj.sweep].res[fj.index] = res
				}
				done++
				if p.Progress != nil {
					ev := JobEvent{
						Cell:     cells[fj.sweep].Name,
						Sweep:    fj.sweep,
						Key:      fj.key,
						Index:    fj.index,
						Err:      jobErrs[fi],
						Done:     done,
						Total:    len(flat),
						Attempts: attempts,
						Elapsed:  elapsed,
					}
					if err == nil {
						ev.Result = res
					}
					p.Progress(ev)
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for fi := range flat {
		select {
		case jobCh <- fi:
		case <-cancel:
			break feed
		case <-ctx.Done():
			break feed
		}
	}
	close(jobCh)
	wg.Wait()

	// Feed-order-first error: deterministic at any worker count.  A caller
	// cancellation takes precedence — an interrupted sweep reports the
	// interruption (with how far it got), not whichever transient error a
	// retry loop was holding when the context fired.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("experiment: sweep canceled after %d of %d jobs: %w", done, len(flat), err)
	}
	for _, err := range jobErrs {
		if err != nil {
			return nil, err
		}
	}

	return out, nil
}
