package cmpleak

// The benchmark harness: one benchmark per table/figure of the paper's
// evaluation plus ablation benches for two design choices: Selective
// Decay's arming rule and strict L1 inclusion on clean turn-offs.
//
// Figure benches share one reduced-scale sweep (built lazily, outside the
// timed region) whose structure matches the paper's matrix: six benchmarks,
// the 1-8 MB cache sizes, and the seven technique configurations, but with
// workloads scaled down (CMPLEAK_BENCH_SCALE, default 0.02) and decay times
// scaled accordingly so decay still fires within the shorter runs.  The
// reported custom metrics are the headline values of each figure, so
// `go test -bench .` both regenerates the figures and exposes their key
// numbers.  For full-scale figure regeneration use cmd/leaksweep.
import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
)

// benchScale returns the workload scale used by the figure benches.
func benchScale() float64 {
	if v := os.Getenv("CMPLEAK_BENCH_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.02
}

// benchDecayTimes returns decay times proportional to the scaled-down runs.
func benchDecayTimes() []Cycle {
	return []Cycle{32 * 1024, 8 * 1024, 4 * 1024}
}

var (
	benchSweepOnce sync.Once
	benchSweep     *Sweep
	benchSweepErr  error
)

// figureSweep builds the shared reduced-scale sweep once per benchmark
// binary invocation.
func figureSweep(b *testing.B) *Sweep {
	b.Helper()
	benchSweepOnce.Do(func() {
		opts := DefaultSweepOptions(benchScale())
		opts.CacheSizesMB = []int{1, 2, 4, 8}
		opts.Techniques = nil
		opts.Techniques = append(opts.Techniques, Protocol())
		for _, dt := range benchDecayTimes() {
			opts.Techniques = append(opts.Techniques, Decay(dt))
		}
		for _, dt := range benchDecayTimes() {
			opts.Techniques = append(opts.Techniques, SelectiveDecay(dt))
		}
		var sweeps []*Sweep
		sweeps, benchSweepErr = RunSweeps(context.Background(), []NamedSweepOptions{{Options: opts}}, SweepParallelism{})
		if benchSweepErr == nil {
			benchSweep = sweeps[0]
		}
	})
	if benchSweepErr != nil {
		b.Fatal(benchSweepErr)
	}
	return benchSweep
}

// reportFigure reports the first technique's value in the largest column of
// a figure table as a custom metric, so benchmark output carries the
// regenerated numbers.
func reportFigure(b *testing.B, fig FigureTable, metricName string) {
	b.Helper()
	if len(fig.Rows) == 0 || len(fig.Columns) == 0 {
		b.Fatalf("%s: empty figure", fig.Title)
	}
	last := fig.Columns[len(fig.Columns)-1]
	for _, row := range fig.Rows {
		if v, ok := fig.Cell(row.Label, last); ok {
			b.ReportMetric(v*100, fmt.Sprintf("%s_%s_%s_pct", metricName, row.Label, last))
		}
	}
}

// --- Figure benches: one per panel of the paper's evaluation -------------

func BenchmarkFigure3a_Occupation(b *testing.B) {
	s := figureSweep(b)
	b.ResetTimer()
	var fig FigureTable
	for i := 0; i < b.N; i++ {
		fig = s.Figure3a()
	}
	reportFigure(b, fig, "occupation")
}

func BenchmarkFigure3b_MissRate(b *testing.B) {
	s := figureSweep(b)
	b.ResetTimer()
	var fig FigureTable
	for i := 0; i < b.N; i++ {
		fig = s.Figure3b()
	}
	reportFigure(b, fig, "l2miss")
}

func BenchmarkFigure4a_Bandwidth(b *testing.B) {
	s := figureSweep(b)
	b.ResetTimer()
	var fig FigureTable
	for i := 0; i < b.N; i++ {
		fig = s.Figure4a()
	}
	reportFigure(b, fig, "bw_increase")
}

func BenchmarkFigure4b_AMAT(b *testing.B) {
	s := figureSweep(b)
	b.ResetTimer()
	var fig FigureTable
	for i := 0; i < b.N; i++ {
		fig = s.Figure4b()
	}
	reportFigure(b, fig, "amat_increase")
}

func BenchmarkFigure5a_Energy(b *testing.B) {
	s := figureSweep(b)
	b.ResetTimer()
	var fig FigureTable
	for i := 0; i < b.N; i++ {
		fig = s.Figure5a()
	}
	reportFigure(b, fig, "energy_reduction")
}

func BenchmarkFigure5b_IPC(b *testing.B) {
	s := figureSweep(b)
	b.ResetTimer()
	var fig FigureTable
	for i := 0; i < b.N; i++ {
		fig = s.Figure5b()
	}
	reportFigure(b, fig, "ipc_loss")
}

func BenchmarkFigure6a_EnergyPerBenchmark(b *testing.B) {
	s := figureSweep(b)
	b.ResetTimer()
	var fig FigureTable
	for i := 0; i < b.N; i++ {
		fig = s.Figure6a(4)
	}
	reportFigure(b, fig, "energy_reduction")
}

func BenchmarkFigure6b_IPCPerBenchmark(b *testing.B) {
	s := figureSweep(b)
	b.ResetTimer()
	var fig FigureTable
	for i := 0; i < b.N; i++ {
		fig = s.Figure6b(4)
	}
	reportFigure(b, fig, "ipc_loss")
}

// BenchmarkHeadline reports the abstract's comparison (Protocol / Decay /
// Selective Decay energy reduction and IPC loss at 4 MB).
func BenchmarkHeadline(b *testing.B) {
	s := figureSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := s.HeadlineAt(4)
		if len(h.Techniques) == 0 {
			b.Fatal("empty headline")
		}
	}
	h := s.HeadlineAt(4)
	for i, tech := range h.Techniques {
		b.ReportMetric(h.EnergyReductions[i]*100, tech+"_energy_pct")
		b.ReportMetric(h.IPCLosses[i]*100, tech+"_ipcloss_pct")
	}
}

// --- Simulator throughput benches: one full run per iteration ------------

// benchRunConfig builds a small single-run configuration.
func benchRunConfig(bench string, tech TechniqueSpec) Config {
	cfg := DefaultConfig().WithBenchmark(bench).WithTotalL2MB(1).WithTechnique(tech)
	cfg.WorkloadScale = 0.02
	return cfg
}

func benchmarkSingleRun(b *testing.B, tech TechniqueSpec) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := Run(benchRunConfig("WATER-NS", tech))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Cycles), "sim_cycles")
	}
}

func BenchmarkRunBaseline(b *testing.B) { benchmarkSingleRun(b, Baseline()) }

func BenchmarkRunProtocol(b *testing.B) { benchmarkSingleRun(b, Protocol()) }

func BenchmarkRunDecay(b *testing.B) { benchmarkSingleRun(b, Decay(8*1024)) }

func BenchmarkRunSelectiveDecay(b *testing.B) { benchmarkSingleRun(b, SelectiveDecay(8*1024)) }

// --- Ablation benches (arming rule, strict inclusion) ---------------------

// BenchmarkAblationSelectiveRule compares plain decay against selective
// decay at the same decay time: the arming rule is the only difference.
func BenchmarkAblationSelectiveRule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, err := Run(benchRunConfig("FMM", Baseline()))
		if err != nil {
			b.Fatal(err)
		}
		dec, err := Run(benchRunConfig("FMM", Decay(8*1024)))
		if err != nil {
			b.Fatal(err)
		}
		sel, err := Run(benchRunConfig("FMM", SelectiveDecay(8*1024)))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(Compare(dec, base).IPCLoss*100, "decay_ipcloss_pct")
		b.ReportMetric(Compare(sel, base).IPCLoss*100, "sel_decay_ipcloss_pct")
		b.ReportMetric(Compare(dec, base).EnergyReduction*100, "decay_energy_pct")
		b.ReportMetric(Compare(sel, base).EnergyReduction*100, "sel_decay_energy_pct")
	}
}

// BenchmarkAblationStrictInclusion measures the cost of also back-
// invalidating the L1 when a clean line is turned off (the paper does not).
func BenchmarkAblationStrictInclusion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		relaxed := benchRunConfig("WATER-NS", Decay(8*1024))
		strict := relaxed
		strict.Technique.StrictInclusion = true
		r1, err := Run(relaxed)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := Run(strict)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r1.IPC, "relaxed_ipc")
		b.ReportMetric(r2.IPC, "strict_ipc")
		b.ReportMetric(float64(r2.BackInvalidations-r1.BackInvalidations), "extra_back_invalidations")
	}
}

// BenchmarkAblationThermalFeedback measures the effect of the
// leakage-temperature loop on the reported energy.
func BenchmarkAblationThermalFeedback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		withFB := benchRunConfig("mpeg2enc", Baseline())
		withFB.ThermalFeedback = true
		withoutFB := withFB
		withoutFB.ThermalFeedback = false
		r1, err := Run(withFB)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := Run(withoutFB)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r1.EnergyJ*1000, "with_feedback_mJ")
		b.ReportMetric(r2.EnergyJ*1000, "without_feedback_mJ")
		b.ReportMetric(r1.MaxTempC, "max_temp_C")
	}
}

// BenchmarkAblationAdaptive compares fixed decay against the Adaptive Mode
// Control extension at the same initial interval.
func BenchmarkAblationAdaptive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, err := Run(benchRunConfig("VOLREND", Baseline()))
		if err != nil {
			b.Fatal(err)
		}
		fixed, err := Run(benchRunConfig("VOLREND", Decay(8*1024)))
		if err != nil {
			b.Fatal(err)
		}
		adaptive, err := Run(benchRunConfig("VOLREND", AdaptiveDecay(8*1024)))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(Compare(fixed, base).EnergyReduction*100, "fixed_energy_pct")
		b.ReportMetric(Compare(adaptive, base).EnergyReduction*100, "adaptive_energy_pct")
		b.ReportMetric(Compare(fixed, base).IPCLoss*100, "fixed_ipcloss_pct")
		b.ReportMetric(Compare(adaptive, base).IPCLoss*100, "adaptive_ipcloss_pct")
	}
}

// BenchmarkAblationDecayTime sweeps the decay interval for one benchmark,
// quantifying the paper's observation that energy is insensitive to the
// decay time while IPC is very sensitive.
func BenchmarkAblationDecayTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, err := Run(benchRunConfig("facerec", Baseline()))
		if err != nil {
			b.Fatal(err)
		}
		for _, dt := range benchDecayTimes() {
			res, err := Run(benchRunConfig("facerec", Decay(dt)))
			if err != nil {
				b.Fatal(err)
			}
			cmp := Compare(res, base)
			b.ReportMetric(cmp.EnergyReduction*100, fmt.Sprintf("energy_pct_%d", dt))
			b.ReportMetric(cmp.IPCLoss*100, fmt.Sprintf("ipcloss_pct_%d", dt))
		}
	}
}
