package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// sizes are the input sizes of the four workloads.  fullSizes is the
// benchmark; smokeSizes shrink every workload so the test suite can run all
// of them with every check in a few seconds.
type sizes struct {
	// replayScale is the WATER-NS workload scale recorded for replay-*.
	replayScale float64
	// sweepScale and sweepBenchmarks reshape scenarios/paper.json for
	// sweep-cold (nil benchmarks keep the file's six).
	sweepScale      float64
	sweepBenchmarks []string
	// serviceScale and serviceBenchmarks do the same for service-warm's
	// scenario; serviceRound is how many requests one leakserved instance
	// serves before the next round starts a fresh one.
	serviceScale      float64
	serviceBenchmarks []string
	serviceRound      int
	// setupReps is how many times set-up runs before the timed phase;
	// setup_s is the median of all its repetitions (see setupTimes).
	setupReps int
	// maxOps caps the ops of one phase (0: the phase is bounded by time only).
	maxOps int
}

var fullSizes = sizes{
	replayScale:  1,
	sweepScale:   0.05,
	serviceScale: 0.005,
	serviceRound: 500,
	setupReps:    3,
}

var smokeSizes = sizes{
	replayScale:       0.01,
	sweepScale:        0.002,
	sweepBenchmarks:   []string{"mpeg2enc", "WATER-NS"},
	serviceScale:      0.002,
	serviceBenchmarks: []string{"mpeg2enc", "WATER-NS"},
	serviceRound:      8,
	setupReps:         2,
	maxOps:            20,
}

// workers is leakserved's worker count and the number of concurrent service
// clients: the load stays within the two CPUs of the reference host.
const workers = 2

// sweepWorkers is sweep-cold's pool size.  A pool that keeps both CPUs of
// the shared reference host busy measured the host's neighbours as much as
// the sweep: over ten seeds taken in the same period its sweep times spread
// 0.25-0.28 of their median, against 0.16-0.18 for one worker and for the
// single-threaded replays (bench/README.md, noise protocol).
const sweepWorkers = 1

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // repository root (scenarios/paper.json lives there)
	work     string // scratch directory for traces, caches and profiles
	spans    string // append the traced pass's spans here ("" = do not write)
	sizes    sizes
}

// rep is one repetition of a phase: ops completed in wall time, producing
// (or serving) cycles simulated cycles.
type rep struct {
	ops    int
	wall   time.Duration
	cycles float64
}

// phase is what one timed phase measured.
type phase struct {
	reps   []rep
	lat    []float64 // per-op wall time, ms
	failed int       // ops whose output failed a check
	errs   []error   // why they failed
}

func (p *phase) ops() int { return len(p.lat) }

// fail records one failed op.
func (p *phase) fail(err error) {
	p.failed++
	p.errs = append(p.errs, err)
}

// runner is the code of one of the benchmark's workloads.
type runner interface {
	// setup prepares the inputs.  It runs several times (see setupTimes);
	// the last run's state is what the timed phases use.
	setup() error
	// rep runs one rep into ph: a replay, a sweep, or a round of service
	// requests that stops at the deadline or after maxOps requests (0: no
	// cap).  tr is nil on the untraced pass.
	rep(ph *phase, deadline time.Time, maxOps int, tr *tracer) error
	// verify runs the checks that sit outside the timed windows and returns
	// how many it ran and the failures.
	verify() (checks int, errs []error)
	// layers adds the per-layer metrics of the traced pass, timing extra
	// public calls where the timed phase cannot see a layer.
	layers(m metrics, tr *tracer) error
	// close releases files, stores and servers.
	close()
}

// setupTimes collects set-up repetitions.  Set-up runs setupReps times
// before the timed phase.  When it costs under 1% of the first rep, it also
// runs once before every later rep, outside the rep's timing: the host's
// speed drifts over seconds, and a set-up of a fraction of a millisecond
// timed only at the start would see one moment of it.
type setupTimes struct {
	secs       []float64
	interleave bool
}

func (s *setupTimes) run(w runner) error {
	start := time.Now()
	if err := w.setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	s.secs = append(s.secs, time.Since(start).Seconds())
	return nil
}

// measure runs reps until the deadline passes: at least one op, at most
// maxOps when that is non-zero.  Each rep starts from a collected heap
// (runtime.GC, outside the timing), as a fresh process would, so one rep's
// garbage does not tax the next and the peak RSS does not hinge on when a
// collection happened to run.  st, when non-nil, takes the interleaved
// set-up repetitions.
func measure(w runner, deadline time.Time, maxOps int, tr *tracer, st *setupTimes) (*phase, error) {
	ph := &phase{}
	for ph.ops() == 0 || (time.Now().Before(deadline) && (maxOps == 0 || ph.ops() < maxOps)) {
		if st != nil && st.interleave {
			if err := st.run(w); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		left := 0
		if maxOps > 0 {
			left = maxOps - ph.ops()
		}
		if err := w.rep(ph, deadline, left, tr); err != nil {
			return nil, err
		}
		if st != nil && len(ph.reps) == 1 {
			st.interleave = median(st.secs) < ph.reps[0].wall.Seconds()/100
		}
	}
	return ph, nil
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"replay-baseline", "replay-decay", "sweep-cold", "service-warm"}

func newRunner(cfg runConfig) (runner, error) {
	switch cfg.workload {
	case "replay-baseline":
		return newReplay(cfg, "baseline", 4), nil
	case "replay-decay":
		return newReplay(cfg, "decay:64K", 8), nil
	case "sweep-cold":
		return newSweep(cfg), nil
	case "service-warm":
		return newService(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
}

// outcome is one run's result: the contract's JSON line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]valued `json:"metrics"`
}

// runInfo describes a run; leakbench prints it on the line before the
// result.
type runInfo struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`
	Ops      int    `json:"ops"`
	Reps     int    `json:"reps"`
	Checks   int    `json:"checks"`
	// SetupReps counts set-up repetitions; TailPercentile is the
	// percentile latency_tail_ms reports.
	SetupReps      int       `json:"setup_reps"`
	TailPercentile float64   `json:"tail_percentile,omitempty"`
	Host           hostFacts `json:"host"`
}

// run executes one run: set-up, the timed phase(s), the checks, and the
// metrics of the pass (end-to-end when untraced, per-layer when traced).
// Check failures are reported in the outcome and in errs; err is a failure
// that stopped the run.
func run(cfg runConfig) (out outcome, info runInfo, errs []error, err error) {
	info = runInfo{Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.trace, Host: readHostFacts()}
	w, err := newRunner(cfg)
	if err != nil {
		return out, info, nil, err
	}
	defer w.close()

	var probe []float64
	if cfg.trace {
		probe = append(probe, probeNs())
	}
	st := &setupTimes{}
	for range max(cfg.sizes.setupReps, 1) {
		if err := st.run(w); err != nil {
			return out, info, nil, err
		}
	}

	m := metrics{}
	total := time.Duration(cfg.seconds * float64(time.Second))
	var ph *phase
	if !cfg.trace {
		cpu0 := cpuTime()
		ph, err = measure(w, time.Now().Add(total), cfg.sizes.maxOps, nil, st)
		if err != nil {
			return out, info, nil, err
		}
		cpu := cpuTime() - cpu0
		m["peak_rss_mb"] = peakRSSMB()
		m["setup_s"] = median(st.secs)
		m["latency_p50_ms"] = median(ph.lat)
		info.TailPercentile = tailPercentile(ph.ops())
		m["latency_tail_ms"] = max(m["latency_p50_ms"], percentile(ph.lat, info.TailPercentile))
		m["cpu_ms_per_op"] = ms(cpu) / float64(ph.ops())
		// The median is taken over the full-sized reps: the deadline can
		// cut the last service round short, and a handful of requests is
		// no measure of a rate.
		var wall time.Duration
		most := 0
		for _, r := range ph.reps {
			wall += r.wall
			most = max(most, r.ops)
		}
		var rates []float64
		for _, r := range ph.reps {
			if 2*r.ops >= most {
				rates = append(rates, r.cycles/r.wall.Seconds())
			}
		}
		m["sim_cycles_per_s"] = median(rates)
		m["ops_per_s"] = float64(ph.ops()) / wall.Seconds()
	} else {
		// A third of the time runs untraced, as the reference for the
		// tracing overhead; the rest runs under the CPU profiler and the
		// span recorder.
		plain, err := measure(w, time.Now().Add(total/3), cfg.sizes.maxOps, nil, nil)
		if err != nil {
			return out, info, nil, err
		}
		tr := newTracer()
		ph, err = tracedPhase(cfg, w, time.Now().Add(total-total/3), m, tr)
		if err != nil {
			return out, info, nil, err
		}
		m["bench.trace_overhead_frac"] = ratio(median(ph.lat), median(plain.lat)) - 1
		ph.failed += plain.failed
		ph.errs = append(ph.errs, plain.errs...)
		ph.lat = append(ph.lat, plain.lat...)
		ph.reps = append(ph.reps, plain.reps...)
		if err := w.layers(m, tr); err != nil {
			return out, info, nil, fmt.Errorf("per-layer metrics: %w", err)
		}
		if cfg.spans != "" {
			if err := tr.appendTo(cfg.spans, cfg.workload, cfg.seed); err != nil {
				return out, info, nil, err
			}
		}
	}

	checks, verrs := w.verify()
	if cfg.trace {
		m["host.probe_ns"] = median(append(probe, probeNs()))
	}
	errs = append(ph.errs, verrs...)
	info.Ops, info.Reps, info.Checks, info.SetupReps = ph.ops(), len(ph.reps), checks, len(st.secs)
	out.Attempted = ph.ops() + checks
	out.Failed = ph.failed + len(verrs)
	out.Correct = out.Failed == 0
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out.Metrics, err = m.render(defs)
	return out, info, errs, err
}

// tracedPhase runs the measured phase under the CPU profiler and the span
// recorder, then fills the CPU shares and the runtime allocation counters.
func tracedPhase(cfg runConfig, w runner, deadline time.Time, m metrics, tr *tracer) (*phase, error) {
	prof := filepath.Join(cfg.work, "cpu.pprof")
	f, err := os.Create(prof)
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	ph, err := measure(w, deadline, cfg.sizes.maxOps, tr, nil)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	shares, err := topShares(prof)
	if err != nil {
		return nil, err
	}
	for layer, share := range shares {
		m[layer+".cpu_share"] = share
	}
	ops := float64(ph.ops())
	// The driver's own runtime.GC calls between reps are not the program's.
	m["runtime.gc_per_op"] = float64((ms1.NumGC-ms1.NumForcedGC)-(ms0.NumGC-ms0.NumForcedGC)) / ops
	m["runtime.alloc_kb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / ops
	m["runtime.mallocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / ops
	return ph, nil
}
