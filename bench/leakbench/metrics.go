package main

import (
	"fmt"
	"math"
)

// metricDef names one metric with its unit and the direction that is better.
// The lists below are the benchmark's contract; BENCHMARK.json at the
// repository root repeats them (TestBenchmarkJSONMatchesRegistry keeps the
// two in step) and adds the regression bounds.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the numbers a user of cmpleak sees, reported by every
// workload from its untraced pass.  An "op" is one replay (replay-*), one
// whole 192-job sweep (sweep-cold) or one submit-to-report request
// (service-warm); a "rep" is one op, except on service-warm, where it is one
// leakserved instance serving a round of requests.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},             // set-up time, median of the workload's set-up repetitions
	{"sim_cycles_per_s", "1/s", "higher"}, // simulated cycles produced (or served from cache) per host second, median over reps
	{"ops_per_s", "1/s", "higher"},        // ops completed over the summed wall time of all reps: the sustained rate
	{"latency_p50_ms", "ms", "lower"},     // median wall time of one op
	{"latency_tail_ms", "ms", "lower"},    // wall time of one op at tailPercentile: p95 when at least ten ops lie beyond it, else the highest percentile that leaves ten beyond, never below the median
	{"cpu_ms_per_op", "ms", "lower"},      // user+system CPU time of the whole process per op
	{"peak_rss_mb", "MiB", "lower"},       // peak resident set size of the process up to the end of the timed phase
}

// layerPackages are the layers whose CPU share the traced pass reports: the
// module's internal packages that run on some workload's hot path, then
// groups of standard-library packages (see layerOf).  Every other package
// folds into "other", so the shares of one run sum to 1.
var layerPackages = []string{
	"sim", "trace", "workload", "cpu", "coherence", "cache", "core", "mem",
	"decay", "thermal", "power", "stats", "experiment", "scenario",
	"resultcache", "frame", "service",
	"runtime", "http", "json", "fmt", "math", "hash", "syscall", "other",
}

// perLayer are the traced pass's metrics.  Metrics of a layer a workload does
// not exercise read 0 on that workload.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events", "count", "lower"},                // engine events executed per replay (Engine().Executed)
		{"sim.ns_per_event", "ns", "lower"},             // System.Run wall time per executed event
		{"sim.far_frac", "frac", "lower"},               // share of events that overflowed to the far heap (FarEvents/Executed)
		{"trace.decode_ns_per_entry", "ns", "lower"},    // decoding every recorded stream with Reader.NextBatch, per entry
		{"trace.open_verify_ms", "ms", "lower"},         // trace.Open plus File.Verify of the recorded trace
		{"workload.gen_ns_per_entry", "ns", "lower"},    // draining the live generators of the workload's benchmarks, per entry
		{"cpu.instructions", "count", "lower"},          // simulated instructions retired per op
		{"coherence.l1_accesses", "count", "lower"},     // L1 accesses per replay
		{"coherence.bus_txns", "count", "lower"},        // snoopy-bus transactions per replay
		{"core.l2_accesses", "count", "lower"},          // L2 accesses per op
		{"core.l2_misses", "count", "lower"},            // L2 misses per op
		{"core.new_system_ms", "ms", "lower"},           // core.NewSystem wall time
		{"mem.bytes", "count", "lower"},                 // off-chip bytes per op
		{"decay.turnoff_requests", "count", "lower"},    // line turn-off requests per op
		{"decay.turnoffs_completed", "count", "lower"},  // line turn-offs completed per op
		{"decay.induced_misses", "count", "lower"},      // decay-induced L2 misses per op
		{"thermal.samples", "count", "lower"},           // power/thermal samples per op (simulated cycles over the sample period, plus the tail sample)
		{"experiment.job_p50_ms", "ms", "lower"},        // median pool job wall time (JobEvent.Elapsed)
		{"experiment.job_p90_ms", "ms", "lower"},        // 90th percentile pool job wall time
		{"experiment.pool_busy_frac", "frac", "higher"}, // summed job time over workers times the pool call's wall time
		{"experiment.pool_idle_ms", "ms", "lower"},      // self time of the pool span: time no job span covers
		{"experiment.report_ms", "ms", "lower"},         // experiment.WriteReport of the full report
		{"experiment.options_digest_us", "us", "lower"}, // Options.Digest of one cell
		{"scenario.parse_expand_ms", "ms", "lower"},     // scenario.Parse plus File.Expand of the workload's scenario
		{"resultcache.put_us_p50", "us", "lower"},       // median Store.Put time
		{"resultcache.put_us_p90", "us", "lower"},       // 90th percentile Store.Put time
		{"resultcache.get_us_p50", "us", "lower"},       // median Store.Get time (misses on sweep-cold, hits on service-warm)
		{"resultcache.hit_frac", "frac", "higher"},      // Store hits over lookups during the traced phase
		{"resultcache.open_ms", "ms", "lower"},          // resultcache.Open (empty store on sweep-cold, the warmed store on service-warm)
		{"resultcache.live_kb", "KiB", "lower"},         // live bytes in the store at the end
		{"service.submit_ms_p50", "ms", "lower"},        // median POST /v1/runs round trip
		{"service.wait_ms_p50", "ms", "lower"},          // median time reading /events until the run is done
		{"service.report_ms_p50", "ms", "lower"},        // median GET /report round trip
		{"service.retained_kb_per_run", "KiB", "lower"}, // live heap left behind per finished run, after GC
		{"runtime.gc_per_op", "count", "lower"},         // garbage collections the program triggered per op in the traced phase (the driver's forced ones excluded)
		{"runtime.alloc_kb_per_op", "KiB", "lower"},     // heap bytes allocated per op in the traced phase
		{"runtime.mallocs_per_op", "count", "lower"},    // heap objects allocated per op in the traced phase
		{"bench.trace_overhead_frac", "frac", "lower"},  // traced median op time over untraced median op time, minus 1
		{"host.probe_ns", "ns", "lower"},                // fixed pure-Go memory walk, ns per step (records host speed; never used to normalise)
	}
	for _, l := range layerPackages {
		// The share of CPU profile samples whose innermost frame, inlined
		// frames kept, is in the layer.
		defs = append(defs, metricDef{l + ".cpu_share", "frac", "lower"})
	}
	return defs
}()

// metrics holds measured values by metric name.
type metrics map[string]float64

// valued is the JSON shape of one reported metric.
type valued struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render returns every metric of defs with its unit.  A metric the run did
// not set reads 0; a non-finite value is an error, since JSON cannot carry it
// and it means a division went wrong.
func (m metrics) render(defs []metricDef) (map[string]valued, error) {
	out := make(map[string]valued, len(defs))
	for _, d := range defs {
		v := m[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = valued{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
