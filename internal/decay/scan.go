package decay

import (
	"cmpleak/internal/coherence"
	"cmpleak/internal/sim"
)

// stripeLines bounds how many lines one engine event touches during a
// global decay tick.  Arrays at or below this size scan in a single event
// (every test-scale cache); the 8 MB sweeps split into ~32 stripes.  A
// variable only so the equivalence test can force multi-stripe scans on a
// small array.
var stripeLines = 4096

// tickScanner is the per-controller global-tick scan shared by the decay
// family: advance the hierarchical counter of each armed, powered, stable
// line and request turn-off for the ones that saturate.  Two properties keep
// it cheap:
//
//   - it is a direct indexed loop over the cache's flat array, collecting
//     saturated lines in a reused scratch buffer (zero allocations per tick
//     in steady state);
//   - the scan is striped: one engine event touches at most stripeLines
//     lines, with the continuation front-scheduled at the same cycle
//     (sim.Engine.ScheduleNextArg), so the full scan still executes
//     atomically with respect to every other simulation event — bit-for-bit
//     identical to the old monolithic walk — while a global tick over an
//     8 MB bank never does O(all lines) work in one event.  The engine's
//     bucket-drain loop honours the prepend mid-drain (it re-reads the
//     bucket head after every dispatch), so the atomicity guarantee holds
//     under Run/RunLimit exactly as it did under per-event stepping;
//     sim/drain_test.go property-tests that ordering.
//
// Striping is sound because a stripe's side effects cannot change what a
// later stripe observes: counter advances touch only the line itself, and
// RequestTurnOff mutates only the turned-off line (plus the L1 copy, the
// bus and memory — none of which the scan predicate reads).
type tickScanner struct {
	eng  *sim.Engine
	ctrl Controller
	// skipModified implements Selective Decay: lines in Modified never
	// advance toward turn-off.
	skipModified bool
	// done, when set, runs after the last stripe of each tick (the adaptive
	// kind hangs its window adaptation here).
	done func()

	numLines int
	assoc    int
	cursor   int
	scratch  []int
	resumeFn sim.ArgFunc
}

// newTickScanner builds the scan state for one controller.
func newTickScanner(eng *sim.Engine, ctrl Controller, skipModified bool) *tickScanner {
	s := &tickScanner{
		eng:          eng,
		ctrl:         ctrl,
		skipModified: skipModified,
		numLines:     ctrl.Array().NumLines(),
		assoc:        ctrl.Array().Assoc(),
	}
	s.resumeFn = func(any) { s.runStripe() }
	return s
}

// tick runs one global tick: the first stripe executes synchronously inside
// the caller's event; any remaining stripes chain as front-of-queue events
// at the same cycle.
func (s *tickScanner) tick() {
	s.cursor = 0
	s.runStripe()
}

// runStripe scans [cursor, cursor+stripeLines): counters of armed lines
// advance, saturated lines collect into the reused scratch buffer and are
// then turned off in flat-array (set-major) order, matching the order of
// the old whole-array walk.
func (s *tickScanner) runStripe() {
	arr := s.ctrl.Array()
	end := s.cursor + stripeLines
	if end > s.numLines {
		end = s.numLines
	}
	scratch := s.scratch[:0]
	for idx := s.cursor; idx < end; idx++ {
		ln := arr.LineAt(idx)
		if !ln.Valid || !ln.Powered || !ln.DecayArmed {
			continue
		}
		// The turn-off signal may only start from a stationary state
		// (Figure 2); transient lines are reconsidered next tick.
		st := s.ctrl.LineState(idx/s.assoc, idx%s.assoc)
		if !st.Stable() {
			continue
		}
		if s.skipModified && st == coherence.Modified {
			continue
		}
		if ln.DecayCounter < counterLevels {
			ln.DecayCounter++
		}
		if ln.DecayCounter >= counterLevels {
			scratch = append(scratch, idx)
		}
	}
	s.scratch = scratch
	for _, idx := range scratch {
		s.ctrl.RequestTurnOff(idx/s.assoc, idx%s.assoc)
	}
	s.cursor = end
	if s.cursor < s.numLines {
		s.eng.ScheduleNextArg(s.resumeFn, nil)
		return
	}
	if s.done != nil {
		s.done()
	}
}
