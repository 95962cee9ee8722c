package decay

import "cmpleak/internal/coherence"

// tickScanner is the per-controller global tick shared by the decay family:
// advance the hierarchical counter of each armed, powered, stable line and
// request turn-off for the ones that saturate.  Counters are not stored but
// derived (cache.Cache.DecayCounter), so a tick costs one pass over the
// bank's bitmap words (lines/64) plus its due and deferred lines, instead of
// a visit to every line: the cache hands it only the lines reset exactly
// cache.DecayLevels ticks ago and the saturated lines whose earlier request
// left them in place, and a counter reset is O(1) (cache.Cache.ResetDecay).
//
// This is exact — the same requests in the same order as a walk over every
// line advancing stored counters — because of one invariant: a valid,
// powered, armed line in a stable state (and, under Selective Decay, not
// Modified) has counter min(ticks−armTick, cache.DecayLevels), armTick being
// the bank's tick count at the line's last reset, kept in the bank's arm
// tick array that cache.Cache.EnableDecay zeroes.  It holds
// because every way into that condition resets the counter:
//
//   - a fill: Install disarms, then OnStateChange arms and resets;
//   - arming, including Selective Decay's transitions into Shared or
//     Exclusive: only OnStateChange arms, and it resets;
//   - leaving TD, the only transient state (TC is not modelled, and TD is
//     entered only from RequestTurnOff): a snoop downgrade to Shared and a
//     fill on the TD line go through OnStateChange, and completion or a
//     protocol invalidation invalidates the line;
//   - Invalidate disarms, and power only returns with a fill.
//
// So a line that falls out of the condition can be dropped from the tick's
// sets until its next reset, and a line in it saturates exactly when its due
// bucket comes round.  The reference walk lives on as the oracle of
// scan_test.go.
type tickScanner struct {
	ctrl Controller
	// skipModified implements Selective Decay: lines in Modified never
	// turn off, even if armed.
	skipModified bool
	assoc        int
}

// newTickScanner builds the tick for one controller and enables its bank's
// decay bookkeeping (new arrays, or a rebuilt bank's old ones zeroed).
func newTickScanner(ctrl Controller, skipModified bool) *tickScanner {
	ctrl.Array().EnableDecay()
	return &tickScanner{ctrl: ctrl, skipModified: skipModified, assoc: ctrl.Array().Assoc()}
}

// tick runs one global tick: the saturated lines come in index order in
// the bank's due list, are filtered by coherence state in place, and are
// then turned off in that order.  A line its request leaves valid, powered
// and armed is requested again next tick.
func (s *tickScanner) tick() {
	arr := s.ctrl.Array()
	due := arr.DecayTick()
	n := 0
	for _, idx := range due {
		// The turn-off signal may only start from a stationary state
		// (Figure 2); a transient line is reconsidered after its next reset.
		st := s.ctrl.LineState(idx/s.assoc, idx%s.assoc)
		if st.Stable() && !(s.skipModified && st == coherence.Modified) {
			due[n] = idx
			n++
		}
	}
	for _, idx := range due[:n] {
		s.ctrl.RequestTurnOff(idx/s.assoc, idx%s.assoc)
		arr.KeepSaturated(idx)
	}
}
