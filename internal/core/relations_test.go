package core

// Relations between techniques.  The paper defines each technique by what
// it changes (Table I, Section IV), so some pairs of runs must agree
// exactly, whatever the workload.  These tests check the model against that
// definition, not against recorded output.  Following Bekkouche, Collavizza
// and Rueher, a relation that fails names the cell and the first Result
// field that differs.

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"cmpleak/internal/config"
	"cmpleak/internal/decay"
	"cmpleak/internal/power"
	"cmpleak/internal/sim"
)

// relationCell is one (benchmark, size, scale, seed) point a relation is
// checked on.
type relationCell struct {
	bench   string
	totalMB int
	scale   float64
	seed    uint64
}

func (c relationCell) String() string {
	return fmt.Sprintf("%s %dMB scale %g seed %d", c.bench, c.totalMB, c.scale, c.seed)
}

// config is the cell's system running tech, as a sweep job builds it.
func (c relationCell) config(tech decay.Spec) config.System {
	cfg := config.Default().WithBenchmark(c.bench).WithTotalL2MB(c.totalMB).WithTechnique(tech)
	cfg.WorkloadScale = c.scale
	cfg.Seed = c.seed
	return cfg
}

// goldenCells are the benchmark cells of the golden sweep
// (internal/experiment's goldenOptions).
var goldenCells = []relationCell{
	{"WATER-NS", 1, 0.01, 7},
	{"mpeg2dec", 1, 0.01, 7},
}

// runRelation runs cfg and fails the test on a simulation error.
func runRelation(t *testing.T, cfg config.System) Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Label(), err)
	}
	return res
}

// firstDifference returns the first Result field, in declaration order,
// outside skip whose values differ between a and b, as "Field: a vs b";
// it returns "" when they agree.
func firstDifference(t *testing.T, a, b Result, skip []string) string {
	t.Helper()
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for _, name := range skip {
		if _, ok := va.Type().FieldByName(name); !ok {
			t.Fatalf("skipped field %q is not a Result field", name)
		}
	}
	for i := range va.NumField() {
		name := va.Type().Field(i).Name
		if slices.Contains(skip, name) {
			continue
		}
		if fa, fb := va.Field(i).Interface(), vb.Field(i).Interface(); !reflect.DeepEqual(fa, fb) {
			return fmt.Sprintf("%s: %v vs %v", name, fa, fb)
		}
	}
	return ""
}

func TestFirstDifferenceNamesFirstField(t *testing.T) {
	a := Result{Cycles: 10, Instructions: 5, IPC: 0.5}
	b := Result{Cycles: 10, Instructions: 6, IPC: 0.6}
	if got, want := firstDifference(t, a, b, nil), "Instructions: 5 vs 6"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
	if got := firstDifference(t, a, b, []string{"Instructions", "IPC"}); got != "" {
		t.Fatalf("skipped fields reported: %q", got)
	}
}

// TestRelationProtocolEqualsBaseline is R1: Protocol gates only lines the
// coherence protocol invalidated, which hold no data, so it changes no
// timing or traffic.  It equals the baseline in every Result field except
// the labels, occupation and what derives from power.
func TestRelationProtocolEqualsBaseline(t *testing.T) {
	skip := []string{"Label", "Technique", "L2OccupationRate", "Energy", "EnergyJ", "FinalTempsC", "MaxTempC"}
	cells := slices.Clone(goldenCells)
	for _, bench := range []string{"FMM", "mpeg2dec", "WATER-NS"} {
		for _, mb := range []int{1, 4} {
			cells = append(cells, relationCell{bench, mb, 0.1, 1})
		}
	}
	for _, c := range cells {
		base := runRelation(t, c.config(config.Baseline()))
		prot := runRelation(t, c.config(decay.Spec{Kind: decay.KindProtocol}))
		if d := firstDifference(t, base, prot, skip); d != "" {
			t.Errorf("%v: baseline and protocol differ in %s", c, d)
		}
		if prot.L2OccupationRate >= base.L2OccupationRate {
			t.Errorf("%v: protocol occupation %v not below the baseline's %v; the relation is vacuous",
				c, prot.L2OccupationRate, base.L2OccupationRate)
		}
	}
}

// TestRelationDecayBeyondRunEqualsProtocol is R2: with a decay interval
// longer than the run no line decays, so decay, sel_decay and adaptive
// differ only in their labels.  What they still add to Protocol is the
// one-cycle access penalty of the decay counters, so each equals a
// Protocol run whose L2 carries that ExtraLatency, in every field but the
// labels and what derives from power.
func TestRelationDecayBeyondRunEqualsProtocol(t *testing.T) {
	const interval = 1000 << 20 // decay:1000M
	family := []decay.Spec{
		{Kind: decay.KindDecay, DecayCycles: interval},
		{Kind: decay.KindSelectiveDecay, DecayCycles: interval},
		{Kind: decay.KindAdaptive, DecayCycles: interval},
	}
	labels := []string{"Label", "Technique"}
	powerFields := append(slices.Clone(labels), "Energy", "EnergyJ", "FinalTempsC", "MaxTempC")
	for _, bench := range []string{"FMM", "mpeg2dec"} {
		c := relationCell{bench, 4, 0.1, 1}
		pcfg := c.config(decay.Spec{Kind: decay.KindProtocol})
		pcfg.L2.ExtraLatency = 1
		prot := runRelation(t, pcfg)
		first := runRelation(t, c.config(family[0]))
		if first.Cycles >= interval {
			t.Fatalf("%v: run of %d cycles is not shorter than the interval", c, first.Cycles)
		}
		for _, spec := range family[1:] {
			if d := firstDifference(t, first, runRelation(t, c.config(spec)), labels); d != "" {
				t.Errorf("%v: %s and %s differ in %s", c, family[0].Name(), spec.Name(), d)
			}
		}
		if d := firstDifference(t, first, prot, powerFields); d != "" {
			t.Errorf("%v: %s and protocol with a one-cycle L2 penalty differ in %s", c, family[0].Name(), d)
		}
	}
}

// TestRelationSelectiveDecayWithoutStoresEqualsDecay is R3: Selective Decay
// differs from Decay only in sparing Modified lines, and a workload with
// no stores never makes a line Modified.  On one the two differ only in
// their labels.
func TestRelationSelectiveDecayWithoutStoresEqualsDecay(t *testing.T) {
	labels := []string{"Label", "Technique"}
	c := relationCell{"stat:refs=64K,write=0", 1, 1, 1}
	for _, interval := range []sim.Cycle{8 << 10, 64 << 10} {
		dec := runRelation(t, c.config(decay.Spec{Kind: decay.KindDecay, DecayCycles: interval}))
		sel := runRelation(t, c.config(decay.Spec{Kind: decay.KindSelectiveDecay, DecayCycles: interval}))
		if d := firstDifference(t, dec, sel, labels); d != "" {
			t.Errorf("%v decay %d: decay and sel_decay differ in %s", c, interval, d)
		}
		if dec.TurnOffsCompleted == 0 {
			t.Errorf("%v decay %d: no line was turned off; the relation is vacuous", c, interval)
		}
	}
}

// TestRelationStrictInclusionOffDecay is R4: StrictInclusion only adds an
// L1 invalidation to a decay turn-off of a clean line, so under the
// baseline, which turns nothing off, and Protocol, which gates only lines
// the protocol already invalidated, it changes no Result field.
func TestRelationStrictInclusionOffDecay(t *testing.T) {
	for _, bench := range []string{"FMM", "mpeg2dec"} {
		c := relationCell{bench, 4, 0.1, 1}
		for _, spec := range []decay.Spec{config.Baseline(), {Kind: decay.KindProtocol}} {
			strict := spec
			strict.StrictInclusion = true
			if d := firstDifference(t, runRelation(t, c.config(spec)), runRelation(t, c.config(strict)), nil); d != "" {
				t.Errorf("%v: %s with and without StrictInclusion differ in %s", c, spec.Name(), d)
			}
		}
	}
}

// TestRelationL2LeakageAffineInLineCycles is R5: with thermal feedback off
// every bank leaks at its starting temperature, so the run's L2 leakage
// energy is a·on + b·off over the banks' powered and gated line-cycles,
// with a and b the energy of one powered and one gated line-cycle as
// package power prices them for the technique's overheads.  The
// simulator's part is only the line-cycle counts.
func TestRelationL2LeakageAffineInLineCycles(t *testing.T) {
	const relTol = 1e-9 // float summation over sample intervals, no more
	cells := append(slices.Clone(goldenCells),
		relationCell{"FMM", 4, 0.1, 1}, relationCell{"mpeg2dec", 4, 0.1, 1})
	techs := []decay.Spec{
		config.Baseline(),
		{Kind: decay.KindProtocol},
		{Kind: decay.KindDecay, DecayCycles: 8 << 10},
		{Kind: decay.KindAdaptive, DecayCycles: 8 << 10},
	}
	for _, c := range cells {
		for _, tech := range techs {
			cfg := c.config(tech)
			cfg.ThermalFeedback = false
			s, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatalf("%v %s: %v", c, tech.Name(), err)
			}
			var on, off uint64
			for _, l2 := range s.Controllers() {
				arr := l2.Array()
				bankOn := arr.OnCycles(res.Cycles)
				on += bankOn
				off += uint64(arr.Config().NumLines())*uint64(res.Cycles) - bankOn
			}
			p := cfg.Power
			scale := p.Leakage.Scale(cfg.Thermal.InitialC)
			area, counter := 0.0, 0.0
			if tech.Gates() {
				area = p.GatedVddAreaOverhead
			}
			if tech.Decays() {
				counter = p.DecayCounterLeakFraction
			}
			bank := s.Controllers()[0].Array().Config()
			perOn := power.CacheLeakageEnergy(p, bank, 1, 0, scale, area, counter)
			perOff := power.CacheLeakageEnergy(p, bank, 0, 1, scale, area, counter)
			want := perOn*float64(on) + perOff*float64(off)
			if got := res.Energy.L2Leakage; math.Abs(got-want) > relTol*want {
				t.Errorf("%v %s: Energy.L2Leakage %g J, want %g J from %d powered and %d gated line-cycles",
					c, tech.Name(), got, want, on, off)
			}
			if tech.Gates() && c.scale >= 0.1 && off == 0 {
				t.Errorf("%v %s: no line-cycle was gated; the relation is vacuous in b", c, tech.Name())
			}
		}
	}
}
