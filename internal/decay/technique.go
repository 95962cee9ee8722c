// Package decay implements the leakage-saving techniques evaluated in the
// paper (Section IV).  Every technique is a policy layered on the one
// coherence-safe turn-off primitive the L2 controller provides (Figure 2),
// so a technique is data: a Spec whose Kind selects one row of this table.
//
//	kind       gates on invalidation  arms decay on  extra latency  counters  Gated-Vdd area
//	baseline   no                     -              0              no        no
//	protocol   yes                    -              0              no        yes
//	decay      yes                    every fill     1 cycle        yes       yes
//	sel_decay  yes                    fill/change    1 cycle        yes       yes
//	                                  into S or E
//	adaptive   yes                    every fill     1 cycle        yes       yes
//
// The baseline powers every line for the whole run.  Protocol gates a line
// whenever the coherence protocol invalidates it, and never-filled lines stay
// off.  Decay adds hierarchical 2-bit per-line counters: a line not accessed
// for the decay interval is turned off.  Selective Decay arms the counters
// only on transitions into Shared or Exclusive, so Modified lines do not
// decay.  Adaptive is a related-work extension (Zhou et al.'s Adaptive Mode
// Control) that retunes the decay interval from the sampled miss rate.
//
// The L2 controller calls the Spec's hook methods (state change, a fill
// included; hit; protocol invalidation); the Spec acts on the controller
// through the Controller interface (power gating and the Figure 2 turn-off
// request).
package decay

import (
	"fmt"
	"strconv"

	"cmpleak/internal/cache"
	"cmpleak/internal/coherence"
	"cmpleak/internal/sim"
)

// Controller is the view of the leakage-aware L2 controller a technique is
// given.  It is implemented by internal/core.Controller, which keeps every
// access count: the cache array holds only line state.
type Controller interface {
	// Array returns the underlying cache array for direct power gating and
	// counter manipulation.
	Array() *cache.Cache
	// RequestTurnOff asks the controller to turn the line off following the
	// modified MESI protocol of Figure 2 (write-back and upper-level
	// invalidation for Modified lines, immediate gating otherwise).  The
	// controller may defer the request when the line is transient.
	RequestTurnOff(set, way int)
	// LineState returns the coherence state of a line (Invalid when the
	// way holds no block).
	LineState(set, way int) coherence.State
	// Misses returns the processor-side L2 misses so far; Adaptive samples
	// it per window.
	Misses() uint64
	// Now returns the current simulation cycle.
	Now() sim.Cycle
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

// Spec is one leakage technique: the policy applied to every private L2 of
// the CMP.  The zero Spec is the baseline.
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
	if s.Decays() {
		var buf [32]byte
		b := append(buf[:0], s.Kind.String()...)
		return string(appendCyclesLabel(b, s.DecayCycles))
	}
	return s.Kind.String()
}

// appendCyclesLabel appends a cycle count the way the paper labels decay
// times (64K, 128K, 512K, 1M ...) to b.
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

// Validate rejects an unknown kind and a decay-family spec without an
// interval.
func (s Spec) Validate() error {
	if s.Kind > KindAdaptive {
		return fmt.Errorf("decay: unknown technique kind %d", s.Kind)
	}
	if s.Decays() && s.DecayCycles == 0 {
		return fmt.Errorf("decay: DecayCycles must be set for %v", s.Kind)
	}
	return nil
}

// Gates reports whether the technique adds Gated-Vdd circuitry: lines are
// gated on protocol invalidation (and on decay), at the cost of the
// Gated-Vdd area overhead.  Every technique but the baseline gates.
func (s Spec) Gates() bool { return s.Kind != KindAlwaysOn }

// Decays reports whether the technique keeps per-line decay counters, which
// cost an access cycle and dynamic and leakage overhead in the energy model.
func (s Spec) Decays() bool {
	return s.Kind == KindDecay || s.Kind == KindSelectiveDecay || s.Kind == KindAdaptive
}

// ExtraAccessLatency is the per-access penalty of the technique's circuitry:
// the paper charges one cycle for decay caches.
func (s Spec) ExtraAccessLatency() sim.Cycle {
	if s.Decays() {
		return 1
	}
	return 0
}

// Start initialises the technique for one controller: the baseline powers
// the whole array, protocol starts fully gated (lines power on as they are
// filled), and the decay family starts its global-tick scanner.
func (s Spec) Start(eng *sim.Engine, ctrl Controller) {
	switch s.Kind {
	case KindAlwaysOn:
		ctrl.Array().PowerOnAll(eng.Now())
	case KindDecay, KindSelectiveDecay:
		// A recurring engine event: one pooled node, no rescheduling churn.
		// Selective Decay's scan skips Modified lines even if one became
		// Modified without the arming hook firing.
		sc := newTickScanner(ctrl, s.Kind == KindSelectiveDecay)
		period := max(s.DecayCycles/cache.DecayLevels, 1)
		eng.ScheduleRecurring(period, func(sim.Cycle) bool {
			sc.tick()
			return true
		})
	case KindAdaptive:
		startAdaptive(eng, ctrl, s.DecayCycles)
	}
}

// OnStateChange is invoked when a valid line enters the stationary state
// st, a fill's initial state included; it is the only place a line is
// armed.  A decay-family technique
// resets the line's counter and arms it, except that Selective Decay arms
// only on transitions into Shared or Exclusive: turning off a Modified line
// forces an upper-level invalidation and a write-back, which directly hurts
// performance.
func (s Spec) OnStateChange(ctrl Controller, set, way int, st coherence.State) {
	if !s.Decays() {
		return
	}
	arr := ctrl.Array()
	arr.Line(set, way).DecayArmed = s.Kind != KindSelectiveDecay || st == coherence.Shared || st == coherence.Exclusive
	arr.ResetDecay(set, way)
}

// OnHit is invoked on every access that hits the line: the line proved
// itself alive, so its decay counter resets.
func (s Spec) OnHit(ctrl Controller, set, way int) {
	if s.Decays() {
		ctrl.Array().ResetDecay(set, way)
	}
}

// OnProtocolInvalidate is invoked after the coherence protocol invalidated
// the line (remote BusRdX/BusUpgr); a gating technique gates it.  The line
// is already Invalid, so gating is safe.
func (s Spec) OnProtocolInvalidate(ctrl Controller, set, way int) {
	if s.Gates() {
		ctrl.Array().PowerOff(set, way, ctrl.Now())
	}
}
