package power

import (
	"math"

	"cmpleak/internal/cache"
)

// The CACTI-like cache model: per-access dynamic energy and per-line leakage
// power derived from the cache geometry.  The scaling rules capture the two
// behaviours the study depends on: access energy grows sub-linearly with
// capacity (longer bit/word lines), and leakage grows linearly with the
// number of SRAM cells, i.e. with capacity.

// l2ReferenceBytes is the bank size at which L2AccessEnergyBase is defined.
const l2ReferenceBytes = 256 * 1024

// L2AccessEnergy returns the dynamic energy of one access to an L2 bank of
// the given geometry.
func L2AccessEnergy(p Params, cfg cache.Config) float64 {
	ratio := float64(cfg.SizeBytes) / float64(l2ReferenceBytes)
	if ratio <= 0 {
		ratio = 1
	}
	// Access energy scales roughly with sqrt(capacity) (bitline length) and
	// weakly with associativity (more ways read per access).
	assocFactor := 1 + 0.05*float64(cfg.Assoc-1)
	return p.L2AccessEnergyBase * math.Sqrt(ratio) * assocFactor
}

// L2LeakagePerLineWatt returns the leakage power of one powered L2 line at
// the reference temperature, before Gated-Vdd or counter overheads.
func L2LeakagePerLineWatt(p Params, cfg cache.Config) float64 {
	perByte := p.L2LeakagePerMBWatt / (1024 * 1024)
	return perByte * float64(cfg.LineBytes)
}

// CacheLeakageEnergy integrates cache leakage over a run given the exact
// number of powered line-cycles and gated line-cycles, a temperature scale
// factor, and the technique overhead knobs.
//
//   - onLineCycles:  Σ over lines of cycles spent powered
//   - offLineCycles: Σ over lines of cycles spent gated
//   - tempScale:     multiplicative factor from LeakageParams.Scale
//   - areaOverhead:  Gated-Vdd area fraction charged to powered lines
//   - counterLeak:   extra fraction for decay counters (0 when absent)
func CacheLeakageEnergy(p Params, cfg cache.Config, onLineCycles, offLineCycles uint64,
	tempScale, areaOverhead, counterLeak float64) float64 {
	perLineWatt := L2LeakagePerLineWatt(p, cfg) * tempScale
	onSeconds := p.CyclesToSeconds(onLineCycles)
	offSeconds := p.CyclesToSeconds(offLineCycles)
	onEnergy := perLineWatt * (1 + areaOverhead + counterLeak) * onSeconds
	offEnergy := perLineWatt * p.GatedOffResidual * offSeconds
	return onEnergy + offEnergy
}
