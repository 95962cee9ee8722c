package experiment

import (
	"io"
	"slices"
	"strings"
	"testing"

	"cmpleak/internal/config"
	"cmpleak/internal/core"
	"cmpleak/internal/decay"
	"cmpleak/internal/workload"
)

// tinyOptions returns a sweep small enough for unit tests: two benchmarks,
// two cache sizes, three techniques, heavily scaled-down workloads with
// decay times short enough to fire within the short runs.
func tinyOptions() Options {
	opts := DefaultOptions(0.04)
	opts.Benchmarks = []string{"WATER-NS", "mpeg2dec"}
	opts.CacheSizesMB = []int{1, 2}
	opts.Techniques = []decay.Spec{
		{Kind: decay.KindProtocol},
		{Kind: decay.KindDecay, DecayCycles: 8 * 1024},
		{Kind: decay.KindSelectiveDecay, DecayCycles: 8 * 1024},
	}
	opts.Seed = 7
	return opts
}

// runTiny runs the tiny sweep once per test binary invocation.
var tinySweep *Sweep

func getTinySweep(t *testing.T) *Sweep {
	t.Helper()
	if tinySweep != nil {
		return tinySweep
	}
	s, err := runSweep(tinyOptions(), Parallelism{})
	if err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	tinySweep = s
	return s
}

func TestOptionsValidation(t *testing.T) {
	if err := DefaultOptions(0.1).Validate(); err != nil {
		t.Fatalf("default options invalid: %v", err)
	}
	bad := DefaultOptions(0.1)
	bad.Scale = 0
	if bad.Validate() == nil {
		t.Fatal("zero scale accepted")
	}
	bad = DefaultOptions(0.1)
	bad.Benchmarks = nil
	if bad.Validate() == nil {
		t.Fatal("empty benchmark list accepted")
	}
	bad = DefaultOptions(0.1)
	bad.CacheSizesMB = []int{0}
	if bad.Validate() == nil {
		t.Fatal("zero cache size accepted")
	}
	if _, err := runSweep(bad, Parallelism{}); err == nil {
		t.Fatal("Run accepted invalid options")
	}
}

// TestOptionsRejectDuplicateAxisValues: a repeated benchmark, size or
// technique label would run the same keyed jobs twice and print duplicate
// report columns, so Validate refuses it before anything simulates.
func TestOptionsRejectDuplicateAxisValues(t *testing.T) {
	cases := map[string]func(*Options){
		"benchmark": func(o *Options) { o.Benchmarks = []string{"FMM", "WATER-NS", "FMM"} },
		"size":      func(o *Options) { o.CacheSizesMB = []int{1, 1} },
		"technique": func(o *Options) {
			o.Techniques = []decay.Spec{{Kind: decay.KindProtocol}, {Kind: decay.KindProtocol}}
		},
		// Different specs, same label: 65536 cycles is "decay64K".
		"technique label": func(o *Options) {
			o.Techniques = []decay.Spec{
				{Kind: decay.KindDecay, DecayCycles: 64 * 1024},
				{Kind: decay.KindDecay, DecayCycles: 65536, StrictInclusion: true},
			}
		},
		"baseline technique": func(o *Options) {
			o.Techniques = []decay.Spec{{Kind: decay.KindProtocol}, {Kind: decay.KindAlwaysOn}}
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			opts := DefaultOptions(0.01)
			mutate(&opts)
			err := opts.Validate()
			if err == nil {
				t.Fatal("duplicate axis value accepted")
			}
			if !strings.Contains(err.Error(), "twice") && !strings.Contains(err.Error(), "baseline") {
				t.Errorf("error %q does not name the repeat", err)
			}
			ran := 0
			restore := runJob
			runJob = func(_ *core.System, cfg config.System, _ workload.Generator) (core.Result, error) {
				ran++
				return core.Result{}, nil
			}
			defer func() { runJob = restore }()
			if _, err := runSweep(opts, Parallelism{Workers: 1}); err == nil {
				t.Fatal("sweep ran with a duplicate axis value")
			}
			if ran != 0 {
				t.Fatalf("%d jobs simulated before the duplicate was refused", ran)
			}
		})
	}
}

func TestDefaultOptionsMatchPaperMatrix(t *testing.T) {
	opts := DefaultOptions(1)
	if len(opts.Benchmarks) != 6 || len(opts.CacheSizesMB) != 4 || len(opts.Techniques) != 7 {
		t.Fatalf("paper matrix is 6 benchmarks x 4 sizes x 7 techniques, got %dx%dx%d",
			len(opts.Benchmarks), len(opts.CacheSizesMB), len(opts.Techniques))
	}
}

func TestKeyString(t *testing.T) {
	k := Key{Benchmark: "FMM", SizeMB: 4, Technique: "decay512K"}
	if k.String() != "FMM/4MB/decay512K" {
		t.Fatalf("key string %q", k.String())
	}
}

func TestSweepContainsAllRuns(t *testing.T) {
	s := getTinySweep(t)
	opts := s.Options
	wantRuns := len(opts.Benchmarks) * len(opts.CacheSizesMB) * (len(opts.Techniques) + 1)
	if len(s.Keys()) != wantRuns {
		t.Fatalf("sweep has %d runs, want %d", len(s.Keys()), wantRuns)
	}
	for _, bench := range opts.Benchmarks {
		for _, mb := range opts.CacheSizesMB {
			if _, ok := s.Baseline(bench, mb); !ok {
				t.Errorf("baseline missing for %s %dMB", bench, mb)
			}
			for _, spec := range opts.Techniques {
				if _, ok := s.Result(bench, mb, spec.Name()); !ok {
					t.Errorf("run missing for %s %dMB %s", bench, mb, spec.Name())
				}
			}
		}
	}
}

func TestSweepBaselineProperties(t *testing.T) {
	s := getTinySweep(t)
	for _, bench := range s.Options.Benchmarks {
		for _, mb := range s.Options.CacheSizesMB {
			base, _ := s.Baseline(bench, mb)
			if base.L2OccupationRate < 0.999 {
				t.Errorf("%s %dMB: baseline occupation %v, want 1.0", bench, mb, base.L2OccupationRate)
			}
			if base.EnergyJ <= 0 || base.IPC <= 0 {
				t.Errorf("%s %dMB: baseline energy/IPC empty", bench, mb)
			}
		}
	}
}

func TestSweepCompare(t *testing.T) {
	s := getTinySweep(t)
	cmp, ok := s.Compare("WATER-NS", 1, "protocol")
	if !ok {
		t.Fatal("comparison missing")
	}
	if cmp.OccupationRate <= 0 || cmp.OccupationRate >= 1 {
		t.Fatalf("protocol occupation %v should be in (0,1)", cmp.OccupationRate)
	}
	if cmp.EnergyReduction <= 0 {
		t.Fatalf("protocol should save energy, got %v", cmp.EnergyReduction)
	}
	if cmp.IPCLoss > 0.02 || cmp.IPCLoss < -0.02 {
		t.Fatalf("protocol IPC loss should be ~0, got %v", cmp.IPCLoss)
	}
	if _, ok := s.Compare("nope", 1, "protocol"); ok {
		t.Fatal("comparison for unknown benchmark should fail")
	}
}

func TestSweepOrderingAcrossTechniques(t *testing.T) {
	s := getTinySweep(t)
	// Occupation: decay < sel_decay < protocol < 1.0, averaged over
	// benchmarks at the smaller size.
	occ := func(tech string) float64 {
		v, ok := averageByName(s, 1, tech, metricOccupation)
		if !ok {
			t.Fatalf("missing average for %s", tech)
		}
		return v
	}
	if !(occ("decay8K") < occ("sel_decay8K") && occ("sel_decay8K") < occ("protocol") && occ("protocol") < 1.0) {
		t.Fatalf("occupation ordering violated: decay=%v sel=%v protocol=%v",
			occ("decay8K"), occ("sel_decay8K"), occ("protocol"))
	}
	// Bandwidth increase: protocol ~0, decay >= sel_decay.
	bw := func(tech string) float64 {
		v, _ := averageByName(s, 1, tech, metricBandwidthIncrease)
		return v
	}
	if bw("protocol") > 0.01 {
		t.Fatalf("protocol bandwidth increase %v, want ~0", bw("protocol"))
	}
	if bw("decay8K") < bw("sel_decay8K") {
		t.Fatalf("decay should need at least as much extra bandwidth as selective decay (%v vs %v)",
			bw("decay8K"), bw("sel_decay8K"))
	}
	// IPC loss: protocol <= sel_decay <= decay.
	ipc := func(tech string) float64 {
		v, _ := averageByName(s, 1, tech, metricIPCLoss)
		return v
	}
	if !(ipc("protocol") <= ipc("sel_decay8K")+0.01 && ipc("sel_decay8K") <= ipc("decay8K")+0.01) {
		t.Fatalf("IPC loss ordering violated: protocol=%v sel=%v decay=%v",
			ipc("protocol"), ipc("sel_decay8K"), ipc("decay8K"))
	}
}

func TestFiguresShape(t *testing.T) {
	s := getTinySweep(t)
	figs := s.AllFigures()
	if len(figs) != 8 {
		t.Fatalf("the paper has 8 result panels, got %d", len(figs))
	}
	for _, f := range figs {
		if len(f.Rows) != len(s.Options.Techniques) {
			t.Errorf("%s: %d rows, want one per technique (%d)", f.Title, len(f.Rows), len(s.Options.Techniques))
		}
		for _, r := range f.Rows {
			if len(r.Values) != len(f.Columns) {
				t.Errorf("%s row %s: %d values for %d columns", f.Title, r.Label, len(r.Values), len(f.Columns))
			}
		}
		if f.Markdown() == "" || f.CSV() == "" {
			t.Errorf("%s: empty rendering", f.Title)
		}
	}
	// Figure 3-5 columns are cache sizes; Figure 6 columns are benchmarks.
	if figs[0].Columns[0] != "1MB" {
		t.Errorf("figure 3a columns %v", figs[0].Columns)
	}
	if figs[6].Columns[0] != s.Options.Benchmarks[0] {
		t.Errorf("figure 6a columns %v", figs[6].Columns)
	}
}

func TestFigure3aValues(t *testing.T) {
	s := getTinySweep(t)
	fig := s.Figure3a()
	for _, r := range fig.Rows {
		for i, v := range r.Values {
			if v <= 0 || v >= 1 {
				t.Errorf("occupation %v for %s/%s outside (0,1)", v, r.Label, fig.Columns[i])
			}
		}
	}
	// Cell accessor.
	if _, ok := fig.Cell("protocol", "1MB"); !ok {
		t.Fatal("Cell lookup failed")
	}
	if _, ok := fig.Cell("protocol", "64MB"); ok {
		t.Fatal("Cell lookup for absent column should fail")
	}
}

func TestProtocolEnergySavingGrowsWithCacheSize(t *testing.T) {
	s := getTinySweep(t)
	small, _ := averageByName(s, 1, "protocol", metricEnergyReduction)
	large, _ := averageByName(s, 2, "protocol", metricEnergyReduction)
	if large <= small {
		t.Fatalf("protocol energy saving should grow with cache size: 1MB=%v 2MB=%v", small, large)
	}
}

func TestHeadlineAndReport(t *testing.T) {
	s := getTinySweep(t)
	h := s.HeadlineAt(1)
	if len(h.Techniques) != 3 {
		t.Fatalf("headline should cover protocol, decay and sel_decay, got %v", h.Techniques)
	}
	if h.Techniques[0] != "protocol" || !strings.HasPrefix(h.Techniques[1], "decay") ||
		!strings.HasPrefix(h.Techniques[2], "sel_decay") {
		t.Fatalf("headline technique order wrong: %v", h.Techniques)
	}
	if h.String() == "" {
		t.Fatal("empty headline rendering")
	}
	rep := renderReport(t, s, "", false)
	if !strings.Contains(rep, "Figure 5a") || !strings.Contains(rep, "Figure 6b") {
		t.Fatal("report missing figures")
	}
}

func TestIPCLossByClass(t *testing.T) {
	s := getTinySweep(t)
	cs := s.IPCLossByClass(1, "decay8K")
	if cs.Technique != "decay8K" || cs.SizeMB != 1 {
		t.Fatal("class summary metadata wrong")
	}
	// Both classes are present in the tiny sweep (WATER-NS scientific,
	// mpeg2dec multimedia), so both averages must be populated (possibly
	// small but computed).
	if cs.Scientific == 0 && cs.Multimedia == 0 {
		t.Fatal("class summary did not aggregate anything")
	}
}

func TestTechniqueNamesOrder(t *testing.T) {
	s := getTinySweep(t)
	names := s.TechniqueNames()
	if len(names) != 3 || names[0] != "protocol" {
		t.Fatalf("technique names %v", names)
	}
}

// averageByName is averageOverBenchmarks addressed by size and technique
// label instead of axis index.
func averageByName(s *Sweep, sizeMB int, technique string, metric metricFunc) (float64, bool) {
	si := slices.Index(s.Options.CacheSizesMB, sizeMB)
	t, ok := s.techIndex(technique)
	if si < 0 || !ok {
		return 0, false
	}
	return s.averageOverBenchmarks(si, t, metric)
}

// FigureIndex names the figures in paper order, case-insensitively, and
// WriteReport renders a figure the same under either case.
func TestFigureIndex(t *testing.T) {
	s := getTinySweep(t)
	for want, name := range []string{"3a", "3b", "4a", "4b", "5a", "5b", "6a", "6b"} {
		for _, fig := range []string{name, strings.ToUpper(name)} {
			if i, ok := FigureIndex(fig); !ok || i != want {
				t.Errorf("FigureIndex(%q) = %d, %v; want %d, true", fig, i, ok, want)
			}
		}
		if title := figures[want].table(s).Title; !strings.HasPrefix(title, "Figure "+name+" ") {
			t.Errorf("figure %s renders %q", name, title)
		}
		var lower, upper strings.Builder
		if err := WriteReport(&lower, s, name, false); err != nil {
			t.Fatal(err)
		}
		if err := WriteReport(&upper, s, strings.ToUpper(name), false); err != nil {
			t.Fatal(err)
		}
		if lower.String() != upper.String() {
			t.Errorf("figure %s renders differently upper-cased", name)
		}
	}
	if NumFigures != 8 {
		t.Errorf("NumFigures = %d, want 8", NumFigures)
	}
	for _, fig := range []string{"", "7a", "3", "3a ", "fig3a"} {
		if _, ok := FigureIndex(fig); ok {
			t.Errorf("FigureIndex(%q) accepted an unknown figure", fig)
		}
		if fig != "" {
			if err := WriteReport(io.Discard, s, fig, false); err == nil {
				t.Errorf("WriteReport(%q) accepted an unknown figure", fig)
			}
		}
	}
}

// renderReport returns WriteReport's output for s.
func renderReport(t *testing.T, s *Sweep, fig string, csv bool) string {
	t.Helper()
	var b strings.Builder
	if err := WriteReport(&b, s, fig, csv); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// figureSections splits a full report into one section per figure, in paper
// order, each running to where the next begins.
func figureSections(t *testing.T, full string, csv bool) []string {
	t.Helper()
	marker := "\n### Figure "
	if csv {
		marker = "\nconfig,"
	}
	var starts []int
	for i := 0; ; {
		j := strings.Index(full[i:], marker)
		if j < 0 {
			break
		}
		i += j + 1
		starts = append(starts, i)
	}
	if len(starts) != NumFigures {
		t.Fatalf("full report has %d figure sections, want %d", len(starts), NumFigures)
	}
	sections := make([]string, len(starts))
	for k, start := range starts {
		end := len(full)
		if k+1 < len(starts) {
			end = starts[k+1]
		}
		sections[k] = full[start:end]
	}
	return sections
}

// requireFiguresMatchReport fails unless every single-figure report of s
// equals that figure's section of the full report.
func requireFiguresMatchReport(t *testing.T, s *Sweep) {
	t.Helper()
	for _, csv := range []bool{false, true} {
		sections := figureSections(t, renderReport(t, s, "", csv), csv)
		for i, f := range figures {
			if got := renderReport(t, s, f.name, csv); got != sections[i] {
				t.Errorf("csv=%v: figure %s alone differs from its section of the full report\n--- alone ---\n%s--- in the report ---\n%s",
					csv, f.name, got, sections[i])
			}
		}
	}
}

// Without 4 MB in the sweep, Figures 6a/6b alone show the largest swept
// size, as the full report does.
func TestSingleFigureMatchesFullReport(t *testing.T) {
	s := getTinySweep(t) // 1 and 2 MB
	requireFiguresMatchReport(t, s)
	for _, fig := range []string{"6a", "6b"} {
		if got := renderReport(t, s, fig, false); !strings.Contains(got, "per benchmark (2MB)") {
			t.Errorf("figure %s does not name the largest swept size:\n%s", fig, got)
		}
	}
}

// With 4 MB in the sweep, Figures 6a/6b stay at 4 MB even when a larger
// size is swept.
func TestFigure6AtFourMB(t *testing.T) {
	opts := DefaultOptions(0.01)
	opts.Benchmarks = []string{"mpeg2dec"}
	opts.CacheSizesMB = []int{4, 8}
	opts.Techniques = []decay.Spec{{Kind: decay.KindProtocol}}
	s, err := runSweep(opts, Parallelism{})
	if err != nil {
		t.Fatal(err)
	}
	requireFiguresMatchReport(t, s)
	for fig, want := range map[string]Table{"6a": s.Figure6a(4), "6b": s.Figure6b(4)} {
		if got := renderReport(t, s, fig, false); got != want.Markdown()+"\n" {
			t.Errorf("figure %s = %q, want the 4MB table %q", fig, got, want.Markdown()+"\n")
		}
	}
}

func TestFigure6SizeMB(t *testing.T) {
	for _, tc := range []struct {
		sizes []int
		want  int
	}{
		{[]int{1, 2, 4, 8}, 4},
		{[]int{8, 4}, 4},
		{[]int{1, 2}, 2},
		{[]int{2, 1}, 2},
		{[]int{16}, 16},
		{nil, 4},
	} {
		s := &Sweep{Options: Options{CacheSizesMB: tc.sizes}}
		if got := s.figure6SizeMB(); got != tc.want {
			t.Errorf("sizes %v: figure 6 at %dMB, want %dMB", tc.sizes, got, tc.want)
		}
	}
}
