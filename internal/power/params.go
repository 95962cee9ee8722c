// Package power contains the analytical energy models standing in for the
// tools the paper uses: CACTI (cache access energy and per-line leakage),
// Wattch (per-instruction core energy), Orion (bus transaction energy) and
// the temperature/Vdd-dependent leakage model of Liao et al.  It also models
// the overheads the paper charges to the techniques: the 5% Gated-Vdd area
// increase, the residual leakage of gated lines, and the dynamic/leakage
// cost of the hierarchical decay counters.
//
// Absolute Joule values (the constants of DefaultParams) are calibrated so
// that the L2 leakage share of system energy grows with cache size the way
// the paper's results require (roughly 10% of system energy at 1 MB up to
// ~45% at 8 MB); within that calibration the model is fully analytical and
// deterministic.
package power

import "fmt"

// Params bundles every energy constant of the model.  All energies are in
// Joules, powers in Watts, temperatures in degrees Celsius.
type Params struct {
	// ClockHz is the core clock used to convert cycles to seconds.
	ClockHz float64

	// CoreDynamicEPI is the dynamic energy per retired instruction
	// (Wattch-like, includes register files, ALUs, fetch and L1 lookup
	// circuitry activity factors).
	CoreDynamicEPI float64
	// CoreLeakageWatt is the leakage power of one core at the reference
	// temperature.
	CoreLeakageWatt float64

	// L1AccessEnergy is the dynamic energy of one L1 access.
	L1AccessEnergy float64
	// L1LeakageWatt is the leakage power of one L1 at the reference
	// temperature.
	L1LeakageWatt float64

	// L2AccessEnergyBase is the dynamic energy of one access to a 256 KB
	// L2 bank; CACTI-like scaling grows it with the square root of the
	// capacity ratio.
	L2AccessEnergyBase float64
	// L2LeakagePerMBWatt is the leakage power of one megabyte of L2 at the
	// reference temperature with every line powered.
	L2LeakagePerMBWatt float64

	// BusEnergyPerByte is the Orion-like per-byte transfer energy of the
	// shared bus; BusEnergyPerTxn is the fixed arbitration/address cost.
	BusEnergyPerByte float64
	BusEnergyPerTxn  float64

	// GatedVddAreaOverhead is the fractional area (hence leakage) increase
	// of Gated-Vdd circuitry applied to powered lines (the paper uses 5%).
	// Every technique that gates lines pays it; the baseline does not.
	GatedVddAreaOverhead float64
	// GatedOffResidual is the residual leakage of a gated line as a
	// fraction of its powered leakage ("virtually zero" in the paper; a
	// few percent here to stay conservative).
	GatedOffResidual float64

	// DecayCounterDynamicPerTick is the dynamic energy of updating one
	// line's hierarchical counter on a global tick.
	DecayCounterDynamicPerTick float64
	// DecayCounterLeakFraction is the extra leakage of the per-line
	// counters, as a fraction of the line's leakage.
	DecayCounterLeakFraction float64

	// Leakage holds the temperature dependence parameters.
	Leakage LeakageParams
}

// DefaultParams returns the calibrated model for a 70 nm, 3 GHz CMP.
func DefaultParams() Params {
	return Params{
		ClockHz:                    3e9,
		CoreDynamicEPI:             1.0e-9,
		CoreLeakageWatt:            2.0,
		L1AccessEnergy:             0.2e-9,
		L1LeakageWatt:              0.15,
		L2AccessEnergyBase:         0.5e-9,
		L2LeakagePerMBWatt:         7.0,
		BusEnergyPerByte:           0.02e-9,
		BusEnergyPerTxn:            0.3e-9,
		GatedVddAreaOverhead:       0.05,
		GatedOffResidual:           0.03,
		DecayCounterDynamicPerTick: 0.002e-9,
		DecayCounterLeakFraction:   0.01,
		Leakage:                    DefaultLeakageParams(),
	}
}

// Validate checks that the parameters are physically sensible.
func (p Params) Validate() error {
	if p.ClockHz <= 0 {
		return fmt.Errorf("power: ClockHz must be positive")
	}
	if p.CoreDynamicEPI < 0 || p.L1AccessEnergy < 0 || p.L2AccessEnergyBase < 0 ||
		p.BusEnergyPerByte < 0 || p.BusEnergyPerTxn < 0 || p.DecayCounterDynamicPerTick < 0 {
		return fmt.Errorf("power: energies must be non-negative")
	}
	if p.CoreLeakageWatt < 0 || p.L1LeakageWatt < 0 || p.L2LeakagePerMBWatt < 0 {
		return fmt.Errorf("power: leakage powers must be non-negative")
	}
	if p.GatedVddAreaOverhead < 0 || p.GatedVddAreaOverhead > 0.5 {
		return fmt.Errorf("power: GatedVddAreaOverhead out of range")
	}
	if p.GatedOffResidual < 0 || p.GatedOffResidual > 1 {
		return fmt.Errorf("power: GatedOffResidual out of range")
	}
	if p.DecayCounterLeakFraction < 0 || p.DecayCounterLeakFraction > 1 {
		return fmt.Errorf("power: DecayCounterLeakFraction out of range")
	}
	return p.Leakage.Validate()
}

// CyclesToSeconds converts a cycle count to seconds at the model clock.
func (p Params) CyclesToSeconds(cycles uint64) float64 {
	return float64(cycles) / p.ClockHz
}
