package decay

import (
	"cmpleak/internal/cache"
	"cmpleak/internal/sim"
)

// Adaptive Mode Control, after Zhou et al. (related work, Section II): one
// decay interval per cache, retuned from a sampled miss rate.  If misses in
// a sampling window exceed the target, decay becomes less aggressive (the
// interval doubles); if they fall well below it, decay becomes more
// aggressive (the interval halves).  The interval stays within
// adaptiveRange of its initial value in either direction.
//
// The paper itself evaluates only fixed decay intervals; the adaptive kind
// exists in this reproduction for ablation studies.
const (
	// adaptiveTargetMisses is the per-window miss threshold.
	adaptiveTargetMisses = 64
	// adaptiveSampleWindows is how many decay intervals form one window.
	adaptiveSampleWindows = 4
	// adaptiveRange bounds the interval to [initial/8, initial*8].
	adaptiveRange = 8
	// adaptiveMinCycles keeps the global tick period at least one cycle.
	adaptiveMinCycles = 4
)

// startAdaptive launches an independently adapting tick for one
// controller.  Its adaptation state lives in the closure: each tick runs the
// shared tickScanner, then the window logic, and then schedules the next
// tick one (possibly retuned) period later.  Engine one-shot nodes are
// pooled, so the self-scheduling costs no allocations.
func startAdaptive(eng *sim.Engine, ctrl Controller, initial sim.Cycle) {
	minCycles, maxCycles := initial/adaptiveRange, initial*adaptiveRange
	interval := max(initial, adaptiveMinCycles)
	missesAtWin := ctrl.Misses()
	var ticksInWin uint64

	sc := newTickScanner(ctrl, false)
	var tickFn func()
	tickFn = func() {
		sc.tick()
		ticksInWin++
		if ticksInWin == adaptiveSampleWindows*cache.DecayLevels {
			ticksInWin = 0
			misses := ctrl.Misses()
			windowMisses := misses - missesAtWin
			missesAtWin = misses
			switch {
			case windowMisses > adaptiveTargetMisses && interval < maxCycles:
				interval *= 2
			case windowMisses < adaptiveTargetMisses/2 && interval > minCycles:
				interval = max(interval/2, adaptiveMinCycles)
			}
		}
		eng.Schedule(interval/cache.DecayLevels, tickFn)
	}
	eng.Schedule(interval/cache.DecayLevels, tickFn)
}
