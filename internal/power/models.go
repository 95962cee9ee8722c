package power

// Wattch-like and Orion-like models plus the energy breakdown container used
// by the experiment layer.

// CoreDynamicEnergy returns the dynamic energy of retiring instrs
// instructions on one core.
func CoreDynamicEnergy(p Params, instrs uint64) float64 {
	return p.CoreDynamicEPI * float64(instrs)
}

// CoreLeakageEnergy returns the leakage energy of one core over a run of the
// given length at the given temperature scale factor.
func CoreLeakageEnergy(p Params, cycles uint64, tempScale float64) float64 {
	return p.CoreLeakageWatt * tempScale * p.CyclesToSeconds(cycles)
}

// L1DynamicEnergy returns the dynamic energy of the given number of L1
// accesses.
func L1DynamicEnergy(p Params, accesses uint64) float64 {
	return p.L1AccessEnergy * float64(accesses)
}

// L1LeakageEnergy returns the leakage energy of one L1 over a run.
func L1LeakageEnergy(p Params, cycles uint64, tempScale float64) float64 {
	return p.L1LeakageWatt * tempScale * p.CyclesToSeconds(cycles)
}

// BusEnergy returns the Orion-like interconnect energy for a run given the
// number of transactions and the bytes moved.
func BusEnergy(p Params, transactions, bytes uint64) float64 {
	return p.BusEnergyPerTxn*float64(transactions) + p.BusEnergyPerByte*float64(bytes)
}

// DecayCounterDynamicEnergy returns the dynamic energy of the hierarchical
// counters: every global tick updates one counter per powered line.
func DecayCounterDynamicEnergy(p Params, counterUpdates uint64) float64 {
	return p.DecayCounterDynamicPerTick * float64(counterUpdates)
}

// Breakdown is the per-component energy of one simulation, in Joules.
type Breakdown struct {
	CoreDynamic   float64
	CoreLeakage   float64
	L1Dynamic     float64
	L1Leakage     float64
	L2Dynamic     float64
	L2Leakage     float64
	Bus           float64
	DecayOverhead float64
}

// Total returns the system energy (the paper's "system" is cores, L1s, L2s
// and the bus; off-chip memory energy is excluded, following the paper's
// methodology).
func (b Breakdown) Total() float64 {
	return b.CoreDynamic + b.CoreLeakage + b.L1Dynamic + b.L1Leakage +
		b.L2Dynamic + b.L2Leakage + b.Bus + b.DecayOverhead
}
