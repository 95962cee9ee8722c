// Package decay implements the leakage-saving techniques evaluated in the
// paper (Section IV), all built on top of the coherence-safe turn-off
// primitive provided by the L2 controller:
//
//   - AlwaysOn       — the baseline: every line is powered for the whole run.
//   - Protocol       — a line is gated whenever the coherence protocol
//     invalidates it (and never-filled lines stay off).
//   - Decay          — fixed-interval cache decay with hierarchical 2-bit
//     counters; a line not accessed for the decay time is turned off.
//   - SelectiveDecay — decay armed only on transitions leading to Shared or
//     Exclusive; lines that become Modified do not decay.
//   - AdaptiveMode   — a related-work extension (Zhou et al. Adaptive Mode
//     Control) that adjusts a global decay interval from the observed
//     decay-induced miss rate; used for ablation studies.
//
// A technique observes the L2 controller through hook methods (fill, hit,
// state change, protocol invalidation) and acts on it through the
// Controller interface (power gating and the Figure 2 turn-off request).
package decay

import (
	"fmt"
	"strconv"

	"cmpleak/internal/cache"
	"cmpleak/internal/coherence"
	"cmpleak/internal/sim"
)

// Controller is the view of the leakage-aware L2 controller a technique is
// given.  It is implemented by internal/core.Controller.
type Controller interface {
	// ControllerID identifies the L2 (its core index).
	ControllerID() int
	// Array returns the underlying cache array for direct power gating and
	// counter manipulation.
	Array() *cache.Cache
	// RequestTurnOff asks the controller to turn the line off following the
	// modified MESI protocol of Figure 2 (write-back and upper-level
	// invalidation for Modified lines, immediate gating otherwise).  The
	// controller may defer the request when the line is transient.
	RequestTurnOff(set, way int)
	// LineState returns the coherence state of a line.
	LineState(set, way int) coherence.State
	// Now returns the current simulation cycle.
	Now() sim.Cycle
}

// Technique is one leakage-management policy applied to every private L2 of
// the CMP.  Hook methods are invoked by the L2 controllers; Start is called
// once per controller after the system is wired.
type Technique interface {
	// Name returns the configuration name used in figures, e.g. "decay512K".
	Name() string
	// Start initialises the technique for one controller (powering lines,
	// starting decay tickers, ...).
	Start(eng *sim.Engine, ctrl Controller)
	// OnFill is invoked when a line is installed with its initial state.
	OnFill(ctrl Controller, set, way int, st coherence.State)
	// OnHit is invoked on every access that hits the line.
	OnHit(ctrl Controller, set, way int, st coherence.State)
	// OnStateChange is invoked when a line transitions between coherence
	// states (stationary states only).
	OnStateChange(ctrl Controller, set, way int, old, new coherence.State)
	// OnProtocolInvalidate is invoked when the coherence protocol
	// invalidates the line (remote BusRdX/BusUpgr or replacement).
	OnProtocolInvalidate(ctrl Controller, set, way int)
	// OnTurnedOff is invoked when a turn-off requested by the technique has
	// completed (the line reached Invalid and was gated).
	OnTurnedOff(ctrl Controller, set, way int)
	// ExtraAccessLatency is the per-access penalty of the technique's
	// circuitry (one cycle for decay caches in the paper).
	ExtraAccessLatency() sim.Cycle
	// HasDecayCounters reports whether per-line counters exist, which adds
	// dynamic and leakage overhead in the energy model.
	HasDecayCounters() bool
	// AreaOverhead is the fractional cache area added by the technique
	// (Gated-Vdd costs 5%).
	AreaOverhead() float64
}

// Kind enumerates the built-in techniques.
type Kind uint8

const (
	// KindAlwaysOn is the unoptimised baseline.
	KindAlwaysOn Kind = iota
	// KindProtocol turns lines off on protocol invalidations only.
	KindProtocol
	// KindDecay is fixed-interval cache decay.
	KindDecay
	// KindSelectiveDecay is the performance-optimised decay variant.
	KindSelectiveDecay
	// KindAdaptive is the Adaptive-Mode-Control extension.
	KindAdaptive
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindAlwaysOn:
		return "baseline"
	case KindProtocol:
		return "protocol"
	case KindDecay:
		return "decay"
	case KindSelectiveDecay:
		return "sel_decay"
	case KindAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Spec selects a technique and its parameters.
type Spec struct {
	Kind Kind
	// DecayCycles is the decay interval for decay-based techniques
	// (e.g. 512*1024 for the paper's "512K" configurations).
	DecayCycles sim.Cycle
	// StrictInclusion also back-invalidates the L1 when a clean line is
	// turned off (an ablation knob; the paper does not do this).
	StrictInclusion bool
}

// Name returns the figure label for the spec (e.g. "decay512K").
func (s Spec) Name() string {
	switch s.Kind {
	case KindDecay, KindSelectiveDecay, KindAdaptive:
		var buf [32]byte
		b := append(buf[:0], s.Kind.String()...)
		return string(appendCyclesLabel(b, s.DecayCycles))
	default:
		return s.Kind.String()
	}
}

// cyclesLabel formats a cycle count the way the paper labels decay times
// (64K, 128K, 512K, 1M ...).
func cyclesLabel(c sim.Cycle) string {
	var buf [24]byte
	return string(appendCyclesLabel(buf[:0], c))
}

// appendCyclesLabel appends cyclesLabel(c) to b.
func appendCyclesLabel(b []byte, c sim.Cycle) []byte {
	switch {
	case c >= 1<<20 && c%(1<<20) == 0:
		return append(strconv.AppendUint(b, uint64(c>>20), 10), 'M')
	case c >= 1<<10 && c%(1<<10) == 0:
		return append(strconv.AppendUint(b, uint64(c>>10), 10), 'K')
	default:
		return strconv.AppendUint(b, uint64(c), 10)
	}
}

// New builds the technique described by the spec.
func New(s Spec) (Technique, error) {
	switch s.Kind {
	case KindAlwaysOn:
		return NewAlwaysOn(), nil
	case KindProtocol:
		return NewProtocol(), nil
	case KindDecay:
		if s.DecayCycles == 0 {
			return nil, fmt.Errorf("decay: DecayCycles must be set for %v", s.Kind)
		}
		return NewFixedDecay(s.DecayCycles), nil
	case KindSelectiveDecay:
		if s.DecayCycles == 0 {
			return nil, fmt.Errorf("decay: DecayCycles must be set for %v", s.Kind)
		}
		return NewSelectiveDecay(s.DecayCycles), nil
	case KindAdaptive:
		if s.DecayCycles == 0 {
			return nil, fmt.Errorf("decay: DecayCycles must be set for %v", s.Kind)
		}
		return NewAdaptiveMode(s.DecayCycles), nil
	default:
		return nil, fmt.Errorf("decay: unknown technique kind %d", s.Kind)
	}
}

// MustNew is New but panics on error; for presets known to be valid.
func MustNew(s Spec) Technique {
	t, err := New(s)
	if err != nil {
		panic(err)
	}
	return t
}
