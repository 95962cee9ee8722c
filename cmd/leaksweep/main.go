// Command leaksweep runs the paper's full evaluation sweep (benchmarks ×
// total cache sizes × leakage techniques, each against its always-on
// baseline) and prints the regenerated figures as markdown tables, in the
// same rows and series as the paper.
//
// Examples:
//
//	leaksweep                      # full sweep, one worker per CPU
//	leaksweep -scale 0.25 -fig 5a  # quarter-length workloads, Figure 5a only
//	leaksweep -benchmarks WATER-NS,FMM -sizes 2,4 -csv
//	leaksweep -jobs 8              # exactly 8 concurrent simulation workers
//	leaksweep -scenario scenarios/paper.json        # declarative matrix
//	leaksweep -cache results/   # persist every job; rerun the command to resume
//	leaksweep -shard 0/4 -cache c0/   # this process runs shard 0 of 4 into c0/
//	leaksweep -merge 'c*'             # join the shard caches into one figure set
//
// Every invocation runs its jobs through an in-process worker pool (one
// simulation engine per worker): -jobs N sets the worker count, defaulting
// to the number of CPUs, and a live progress line on stderr tracks
// completed jobs, rate and ETA.  Results are byte-identical at any -jobs
// value — the pool collects into deterministic feed order — so figures,
// cached results and merges never depend on the worker count.
//
// -scenario runs a declarative experiment matrix instead of the flag-driven
// sweep (which is itself run as a one-cell batch through the same path):
// the JSON file names the benchmark, size, technique, core-count and
// seed axes (plus per-axis overrides) and expands deterministically into one
// or more sweeps ("cells").  scenarios/paper.json is the paper's own figure
// matrix.  A multi-cell scenario fans every cell's jobs through the one
// shared pool — the workers never idle between cells — and the per-cell
// reports print in cell order afterwards.  -shard, -cache and -merge
// compose with it — each cell is sharded identically — so scenario shards
// merge byte-identically, exactly like flag-driven ones.
//
// -shard i/n deterministically partitions the sweep's (benchmark, size)
// groups by index — each group's baseline and technique runs stay together
// — so n invocations that differ only in i (across processes or machines)
// together run exactly the full matrix, each job exactly once.  Each
// invocation records its results with -cache DIRi.  The merge is the
// unsharded command plus -merge 'DIR*': it opens every cache directory the
// glob matches, checks that their union holds every job of every cell and
// never two different results for one job, and prints the combined report
// and figures from the union without simulating anything.  The shard slice
// is not part of a cache record's key, so a shard's cache also serves the
// unsharded command directly.
//
// Benchmarks may be recorded traces: -benchmarks trace:fmm.trc sweeps a
// tracegen file through every size and technique like a synthetic name.
//
// -cache DIR is how a sweep persists and resumes: completed jobs are
// written to a persistent content-addressed store (CRC-framed segments
// whose torn tails self-heal, keyed on the sweep's options digest and the
// job key, stamped with the golden behaviour anchor), and any job already in
// the store is served from it without simulating — the printed report stays
// byte-identical either way.  A sweep interrupted by SIGKILL, a crash or
// SIGINT/SIGTERM therefore resumes when the same command is run again.
// SIGINT/SIGTERM cancel gracefully: in-flight jobs finish, the store is
// flushed, and the command to rerun is printed.  The same directory backs
// the leakserved service, so CLI runs and service runs share one cache.
// -retries N replays jobs that fail transiently (host I/O) with
// deterministic backoff.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cmpleak"
)

func main() {
	var (
		scale      = flag.Float64("scale", 1.0, "workload scale factor (1.0 = full synthetic workloads)")
		seed       = flag.Uint64("seed", 1, "workload seed")
		benchmarks = flag.String("benchmarks", "", "comma-separated benchmark subset (default: all six)")
		sizes      = flag.String("sizes", "", "comma-separated total L2 sizes in MB (default: 1,2,4,8)")
		scenario   = flag.String("scenario", "", "run the declarative scenario file instead of the flag-driven sweep")
		fig        = flag.String("fig", "", "print only one figure: 3a, 3b, 4a, 4b, 5a, 5b, 6a, 6b")
		csv        = flag.Bool("csv", false, "emit CSV instead of markdown")
		jobs       = flag.Int("jobs", runtime.GOMAXPROCS(0), "concurrent simulation workers (one engine each)")
		quiet      = flag.Bool("quiet", false, "suppress the live progress line")
		shard      = flag.String("shard", "", "run shard i of n sweep jobs, as \"i/n\" (default: all jobs)")
		merge      = flag.String("merge", "", "serve every job from the union of the -cache directories matching this glob instead of running")
		cache      = flag.String("cache", "", "reuse and record job results in this persistent content-addressed cache directory (rerun to resume)")
		retries    = flag.Int("retries", 0, "extra attempts per job for transient failures (0 = fail on first error)")
	)
	flag.Parse()

	if *retries < 0 {
		fatalf("-retries must be >= 0")
	}

	if *merge != "" {
		if *shard != "" {
			fatalf("-merge joins completed shards; it cannot be combined with -shard")
		}
		if *cache != "" {
			fatalf("-merge runs nothing; it cannot be combined with -cache")
		}
	}

	// SIGINT/SIGTERM cancel the pool: in-flight jobs finish, the cache is
	// flushed, and the rerun command prints.  A second signal kills the
	// process the usual way (stop() restores default handling after the
	// first).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	shardIndex, shardCount := 0, 0
	if *shard != "" {
		i, n, err := parseShard(*shard)
		if err != nil {
			fatalf("invalid -shard: %v", err)
		}
		shardIndex, shardCount = i, n
	}

	var source string
	var named []cmpleak.NamedSweepOptions
	if *scenario != "" {
		for _, name := range []string{"benchmarks", "sizes", "scale", "seed"} {
			if flagWasSet(name) {
				fatalf("-scenario files declare the %s axis; drop -%s", name, name)
			}
		}
		source = "scenario " + *scenario
		named = loadScenario(*scenario)
	} else {
		opts := cmpleak.DefaultSweepOptions(*scale)
		opts.Seed = *seed
		if *benchmarks != "" {
			opts.Benchmarks = splitList(*benchmarks)
		}
		if *sizes != "" {
			var mbs []int
			for _, s := range splitList(*sizes) {
				mb, err := strconv.Atoi(s)
				if err != nil {
					fatalf("invalid -sizes entry %q", s)
				}
				mbs = append(mbs, mb)
			}
			opts.CacheSizesMB = mbs
		}
		source = fmt.Sprintf("sweep (scale=%.3g)", opts.Scale)
		named = []cmpleak.NamedSweepOptions{{Options: opts}}
	}
	for i := range named {
		named[i].Options.ShardIndex, named[i].Options.ShardCount = shardIndex, shardCount
	}
	if shardCount > 1 {
		source += fmt.Sprintf(" (shard %d/%d)", shardIndex, shardCount)
	}
	if *merge != "" {
		source += fmt.Sprintf(" (merged from %s)", *merge)
	}

	rc := runConfig{workers: *jobs, quiet: *quiet, retries: *retries}
	if *cache != "" {
		store, err := cmpleak.OpenResultCache(*cache, cmpleak.ResultCacheOptions{})
		if err != nil {
			fatalf("opening cache: %v", err)
		}
		rc.store = store
	}
	if *merge != "" {
		store, err := cmpleak.MergeResultCaches(*merge, named)
		if err != nil {
			fatalf("%v", err)
		}
		rc.store = store
	}
	sweeps := runSweeps(ctx, source, named, rc)
	for i, cell := range named {
		if len(named) > 1 {
			// Cell banners separate the per-cell reports for humans; under
			// -csv they go to stderr so stdout stays machine-parseable.
			if *csv {
				fmt.Fprintf(os.Stderr, "== %s ==\n", cell.Name)
			} else {
				fmt.Printf("== %s ==\n\n", cell.Name)
			}
		}
		emitReport(sweeps[i], *fig, *csv)
	}
}

// runConfig bundles the execution settings of a run.
type runConfig struct {
	workers int
	quiet   bool
	retries int
	// store, when non-nil, is the persistent content-addressed result cache
	// (-cache), or the union of the -merge caches: jobs it holds are served
	// without simulating, and every completed job is written through to it.
	store *cmpleak.ResultCache
}

// loadScenario reads and expands the scenario file into the pool's batch
// input, one entry per cell.
func loadScenario(path string) []cmpleak.NamedSweepOptions {
	sc, err := cmpleak.LoadScenario(path)
	if err != nil {
		fatalf("%v", err)
	}
	cells, err := sc.Expand(cmpleak.DefaultConfig())
	if err != nil {
		fatalf("%s: %v", path, err)
	}
	return cmpleak.ScenarioNamedOptions(cells)
}

// runSweeps fans every sweep's jobs out through one shared worker pool and
// returns one Sweep per entry, in order.  With -cache the store's ReuseFor
// serves the jobs it holds and every simulated job is written through.  On
// exit it closes the store (printing its hit/write summary) and translates
// a pool error into an exit: cancellation exits 130 (the SIGINT convention)
// and, with -cache, prints the command that resumes the run; anything else
// is fatal.
func runSweeps(ctx context.Context, source string, named []cmpleak.NamedSweepOptions, rc runConfig) []*cmpleak.Sweep {
	const prefix = "leaksweep"
	totalJobs := 0
	for i := range named {
		totalJobs += named[i].Options.NumJobs()
	}
	fmt.Fprintf(os.Stderr, "%s: %s: %d cell(s), %d jobs, %d worker(s)\n",
		prefix, source, len(named), totalJobs, effectiveWorkers(rc.workers, totalJobs))

	p := cmpleak.SweepParallelism{
		Workers:  rc.workers,
		Progress: progressLine(prefix, rc.quiet),
	}
	if rc.retries > 0 {
		p.Retry = cmpleak.SweepRetryPolicy{MaxAttempts: rc.retries + 1}
	}
	if rc.store != nil {
		p.Reuse = rc.store.ReuseFor(named)
		digests := make([]string, len(named))
		for i := range named {
			digests[i] = named[i].Options.Digest()
		}
		inner := p.Progress
		p.Progress = func(ev cmpleak.SweepJobEvent) {
			if ev.Err == nil {
				if perr := rc.store.Put(cmpleak.ResultCacheRecord{
					Cell: ev.Cell, OptionsDigest: digests[ev.Sweep], Key: ev.Key, Result: ev.Result,
				}); perr != nil {
					fmt.Fprintf(os.Stderr, "%s: cache write: %v\n", prefix, perr)
				}
			}
			if inner != nil {
				inner(ev)
			}
		}
	}

	start := time.Now()
	sweeps, err := cmpleak.RunSweeps(ctx, named, p)
	if rc.store != nil {
		st := rc.store.Stats()
		fmt.Fprintf(os.Stderr, "%s: cache: %d job(s) reused, %d result(s) recorded\n",
			prefix, st.Hits, st.Puts)
		if cerr := rc.store.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "%s: closing cache: %v\n", prefix, cerr)
		}
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prefix, err)
		if rc.store != nil {
			fmt.Fprintf(os.Stderr, "%s: completed jobs are cached; resume by rerunning:\n  %s\n",
				prefix, strings.Join(os.Args, " "))
		}
		os.Exit(130)
	}
	if err != nil {
		fatalf("sweep failed: %v", err)
	}
	fmt.Fprintf(os.Stderr, "%s: done in %s\n", prefix, time.Since(start).Round(time.Second))
	return sweeps
}

// effectiveWorkers mirrors the pool's clamping for the banner.
func effectiveWorkers(workers, jobs int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > jobs {
		workers = jobs
	}
	return workers
}

// progressLine returns a Progress callback that keeps one live status line
// on stderr: completed/total jobs, rate and ETA.  When stderr is not a
// terminal (CI logs) it prints at most ~10 plain lines instead of
// carriage-return spam; quiet suppresses it entirely.
func progressLine(prefix string, quiet bool) func(cmpleak.SweepJobEvent) {
	if quiet {
		return nil
	}
	tty := false
	if fi, err := os.Stderr.Stat(); err == nil {
		tty = fi.Mode()&os.ModeCharDevice != 0
	}
	start := time.Now()
	return func(ev cmpleak.SweepJobEvent) {
		elapsed := time.Since(start)
		rate := float64(ev.Done) / elapsed.Seconds()
		eta := time.Duration(0)
		if rate > 0 {
			eta = time.Duration(float64(ev.Total-ev.Done)/rate) * time.Second
		}
		label := ev.Key.String()
		if ev.Cell != "" {
			label = ev.Cell + " " + label
		}
		if tty {
			fmt.Fprintf(os.Stderr, "\r%s: %d/%d jobs (%d%%) %.2f jobs/sec eta %s  [%s]\033[K",
				prefix, ev.Done, ev.Total, 100*ev.Done/ev.Total, rate, eta.Round(time.Second), label)
			if ev.Done == ev.Total {
				fmt.Fprintln(os.Stderr)
			}
			return
		}
		// Non-terminal: a line every ~10% and the final one.
		step := ev.Total / 10
		if step == 0 {
			step = 1
		}
		if ev.Done%step == 0 || ev.Done == ev.Total {
			fmt.Fprintf(os.Stderr, "%s: %d/%d jobs (%d%%) %.2f jobs/sec eta %s\n",
				prefix, ev.Done, ev.Total, 100*ev.Done/ev.Total, rate, eta.Round(time.Second))
		}
	}
}

// flagWasSet reports whether the named flag was given explicitly.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// emitReport prints one figure or the full report through the shared
// renderer (the leakserved service serves the same bytes).
func emitReport(sweep *cmpleak.Sweep, fig string, csv bool) {
	if err := cmpleak.WriteSweepReport(os.Stdout, sweep, fig, csv); err != nil {
		fatalf("%v", err)
	}
}

// parseShard parses "i/n" with 0 <= i < n.
func parseShard(s string) (i, n int, err error) {
	is, ns, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("want \"i/n\", got %q", s)
	}
	if i, err = strconv.Atoi(strings.TrimSpace(is)); err != nil {
		return 0, 0, fmt.Errorf("shard index %q is not an integer", is)
	}
	if n, err = strconv.Atoi(strings.TrimSpace(ns)); err != nil {
		return 0, 0, fmt.Errorf("shard count %q is not an integer", ns)
	}
	if n <= 0 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("shard %d/%d out of range (want 0 <= i < n)", i, n)
	}
	return i, n, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "leaksweep: "+format+"\n", args...)
	os.Exit(1)
}
