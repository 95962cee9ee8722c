package core

import (
	"reflect"
	"testing"

	"cmpleak/internal/config"
	"cmpleak/internal/decay"
	"cmpleak/internal/workload"
)

// runSmall runs the small synthetic system with the given technique.
func runSmall(t *testing.T, tech decay.Spec) Result {
	t.Helper()
	res, err := Run(smallConfig(tech))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSystemBaselineVsProtocolVsDecayOrdering(t *testing.T) {
	base := runSmall(t, config.Baseline())
	proto := runSmall(t, decay.Spec{Kind: decay.KindProtocol})
	dec := runSmall(t, decay.Spec{Kind: decay.KindDecay, DecayCycles: 8 * 1024})
	sel := runSmall(t, decay.Spec{Kind: decay.KindSelectiveDecay, DecayCycles: 8 * 1024})

	// Occupation ordering (paper Figure 3a): baseline > protocol > SD > decay.
	if !(base.L2OccupationRate > proto.L2OccupationRate &&
		proto.L2OccupationRate > sel.L2OccupationRate &&
		sel.L2OccupationRate > dec.L2OccupationRate) {
		t.Fatalf("occupation ordering violated: base=%v proto=%v sel=%v decay=%v",
			base.L2OccupationRate, proto.L2OccupationRate, sel.L2OccupationRate, dec.L2OccupationRate)
	}
	// The protocol technique must not change timing at all.
	if proto.Cycles != base.Cycles || proto.IPC != base.IPC {
		t.Fatalf("protocol changed timing: %d vs %d cycles", proto.Cycles, base.Cycles)
	}
	// Decay must not run faster than the baseline, and must generate extra
	// off-chip traffic; the protocol technique must not.
	if dec.Cycles < base.Cycles {
		t.Fatal("decay run finished faster than the baseline")
	}
	if proto.MemoryBytes != base.MemoryBytes {
		t.Fatal("protocol must not change off-chip traffic")
	}
	if dec.MemoryBytes <= base.MemoryBytes {
		t.Fatal("decay should add write-back/refetch traffic")
	}
	// Energy: every technique must save energy against the baseline on this
	// workload; decay saves at least as much L2 leakage as protocol.
	for name, r := range map[string]Result{"protocol": proto, "decay": dec, "sel_decay": sel} {
		if r.EnergyJ >= base.EnergyJ {
			t.Errorf("%s did not save energy (%v vs %v)", name, r.EnergyJ, base.EnergyJ)
		}
	}
	if dec.Energy.L2Leakage >= proto.Energy.L2Leakage {
		t.Fatal("decay should cut more L2 leakage than protocol")
	}
	// Selective decay must lose less IPC than plain decay at the same decay
	// time (the whole point of the technique).
	cmpDec := Compare(dec, base)
	cmpSel := Compare(sel, base)
	if cmpSel.IPCLoss > cmpDec.IPCLoss+1e-9 {
		t.Fatalf("selective decay lost more IPC than decay: %v vs %v", cmpSel.IPCLoss, cmpDec.IPCLoss)
	}
}

func TestSystemDecayTimeSensitivity(t *testing.T) {
	base := runSmall(t, config.Baseline())
	slow := runSmall(t, decay.Spec{Kind: decay.KindDecay, DecayCycles: 64 * 1024})
	fast := runSmall(t, decay.Spec{Kind: decay.KindDecay, DecayCycles: 4 * 1024})
	// A shorter decay time must gate more aggressively...
	if fast.L2OccupationRate >= slow.L2OccupationRate {
		t.Fatalf("shorter decay time should lower occupation: %v vs %v",
			fast.L2OccupationRate, slow.L2OccupationRate)
	}
	// ...and cost at least as much performance (paper: IPC is the quantity
	// sensitive to the decay time).
	if Compare(fast, base).IPCLoss+1e-9 < Compare(slow, base).IPCLoss {
		t.Fatalf("shorter decay time should not improve IPC: %v vs %v",
			Compare(fast, base).IPCLoss, Compare(slow, base).IPCLoss)
	}
}

func TestSystemThermalFeedback(t *testing.T) {
	cfg := smallConfig(config.Baseline())
	cfg.ThermalFeedback = true
	// The unit-test workload only simulates a few hundred microseconds, far
	// below the silicon thermal time constants, so shrink the capacitances
	// to make the blocks respond within the run and start from the ambient
	// temperature so heating is observable.
	cfg.Thermal.CoreCapacitance = 1e-6
	cfg.Thermal.L2Capacitance = 2e-6
	cfg.Thermal.BusCapacitance = 1e-6
	cfg.Thermal.MaxStepSeconds = 1e-6
	cfg.Thermal.InitialC = cfg.Thermal.AmbientC
	withFB, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ThermalFeedback = false
	withoutFB, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With feedback the blocks heat up above the initial temperature and
	// the leakage (hence total energy) must be at least as large as the
	// constant-temperature estimate.
	if withFB.MaxTempC <= cfg.Thermal.InitialC {
		t.Fatalf("thermal feedback did not heat any block: max %v", withFB.MaxTempC)
	}
	if withFB.Energy.L2Leakage <= 0 || withoutFB.Energy.L2Leakage <= 0 {
		t.Fatal("L2 leakage energy missing")
	}
	// Every block must have risen above ambient under load.
	for b, temp := range withFB.FinalTempsC {
		if temp <= cfg.Thermal.AmbientC {
			t.Fatalf("block %d did not heat above ambient: %v", b, temp)
		}
	}
}

func TestSystemDeterminism(t *testing.T) {
	a := runSmall(t, decay.Spec{Kind: decay.KindDecay, DecayCycles: 8 * 1024})
	b := runSmall(t, decay.Spec{Kind: decay.KindDecay, DecayCycles: 8 * 1024})
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions ||
		a.L2Misses != b.L2Misses || a.TurnOffsCompleted != b.TurnOffsCompleted ||
		a.EnergyJ != b.EnergyJ {
		t.Fatalf("identical configurations produced different results:\n%+v\n%+v", a, b)
	}
}

func TestSystemSeedChangesResults(t *testing.T) {
	cfg := smallConfig(config.Baseline())
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 99
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles == b.Cycles && a.L2Misses == b.L2Misses {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestSystemRunsEveryPaperBenchmark(t *testing.T) {
	for _, bench := range workload.PaperBenchmarks() {
		cfg := config.Default().WithBenchmark(bench).WithTotalL2MB(1).
			WithTechnique(decay.Spec{Kind: decay.KindProtocol})
		cfg.WorkloadScale = 0.02
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		if res.Instructions == 0 || res.IPC <= 0 || res.EnergyJ <= 0 {
			t.Fatalf("%s: empty result %+v", bench, res)
		}
		if res.L2OccupationRate <= 0 || res.L2OccupationRate >= 1 {
			t.Fatalf("%s: protocol occupation %v out of range", bench, res.L2OccupationRate)
		}
	}
}

func TestSystemAccessors(t *testing.T) {
	sys, err := NewSystem(smallConfig(config.Baseline()))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Engine() == nil || sys.Bus() == nil || sys.Memory() == nil {
		t.Fatal("accessors returned nil")
	}
	if len(sys.Controllers()) != 4 || len(sys.L1s()) != 4 {
		t.Fatal("wrong number of per-core components")
	}
}

func TestSystemRejectsInvalidConfig(t *testing.T) {
	cfg := smallConfig(config.Baseline())
	cfg.Cores = 0
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
	cfg = smallConfig(decay.Spec{Kind: decay.KindDecay})
	cfg.Technique.DecayCycles = 0
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("decay without interval accepted")
	}
}

// TestRebuildFailsBeforeBuilding pins that a Rebuild refused by a
// configuration check leaves the System as it was: an unrun System for A,
// asked to rebuild for a config Validate refuses, still runs A exactly as a
// new System for A does.
func TestRebuildFailsBeforeBuilding(t *testing.T) {
	a := smallConfig(decay.Spec{Kind: decay.KindDecay, DecayCycles: 8 * 1024})
	want, err := Run(a)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(a)
	if err != nil {
		t.Fatal(err)
	}
	bad := a
	bad.L1.RetryCycles = 0
	if err := s.Rebuild(bad, nil); err == nil {
		t.Fatal("Rebuild accepted a zero L1 RetryCycles")
	}
	got, err := s.Run()
	if err != nil {
		t.Fatalf("Run after a refused Rebuild: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Run after a refused Rebuild differs from a new System's:\n  got:  %+v\n  want: %+v", got, want)
	}
}

func TestSystemMaxCyclesGuard(t *testing.T) {
	cfg := smallConfig(config.Baseline())
	cfg.MaxCycles = 100 // absurdly small: the run cannot complete
	if _, err := Run(cfg); err == nil {
		t.Fatal("MaxCycles guard did not trigger")
	}
}

func TestStrictInclusionIncursBackInvalidations(t *testing.T) {
	relaxed := smallConfig(decay.Spec{Kind: decay.KindDecay, DecayCycles: 8 * 1024})
	strict := relaxed
	strict.Technique.StrictInclusion = true
	r1, err := Run(relaxed)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(strict)
	if err != nil {
		t.Fatal(err)
	}
	if r2.BackInvalidations < r1.BackInvalidations {
		t.Fatalf("strict inclusion should not reduce back-invalidations: %d vs %d",
			r2.BackInvalidations, r1.BackInvalidations)
	}
}

// TestGatedVddAreaOverheadParam checks that the energy model reads the
// Gated-Vdd area overhead from the power parameters: a gating technique
// pays it on its powered lines, the baseline has no gating circuitry.
func TestGatedVddAreaOverheadParam(t *testing.T) {
	run := func(tech decay.Spec, overhead float64) Result {
		t.Helper()
		cfg := smallConfig(tech)
		cfg.Power.GatedVddAreaOverhead = overhead
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	protocol := decay.Spec{Kind: decay.KindProtocol}
	if lo, hi := run(protocol, 0.05), run(protocol, 0.10); hi.Energy.L2Leakage <= lo.Energy.L2Leakage {
		t.Fatalf("protocol L2 leakage %v at 10%% overhead, not above %v at 5%%",
			hi.Energy.L2Leakage, lo.Energy.L2Leakage)
	}
	if lo, hi := run(config.Baseline(), 0.05), run(config.Baseline(), 0.10); !reflect.DeepEqual(lo, hi) {
		t.Fatalf("the area overhead changed the baseline's result:\n%+v\n%+v", lo, hi)
	}
}

func TestCacheConfigForTotalHelper(t *testing.T) {
	cfg := config.Default()
	derived := cacheConfigForTotal(8*1024*1024, 4, cfg.L2)
	if derived.SizeBytes != 2*1024*1024 {
		t.Fatalf("per-core size %d, want 2MB", derived.SizeBytes)
	}
}
