package decay

// Equivalence of the due-list tick with the whole-array counter walk it
// replaced.  refScan is that walk, with its counters held here: every tick it
// visits every line, advances the counter of each valid, powered, armed,
// stable line and requests turn-off for the saturated ones.  A seeded random
// history drives two mock controllers in lockstep through the real Spec
// hooks — one ticked by the Spec's own scheduler, one by refScan — and every
// tick must issue the same requests in the same order and leave the same
// line state.

import (
	"fmt"
	"testing"

	"cmpleak/internal/cache"
	"cmpleak/internal/coherence"
	"cmpleak/internal/mem"
	"cmpleak/internal/sim"
)

// refScan is the reference whole-array decay tick.
type refScan struct {
	m            *mockController
	skipModified bool
	counters     []uint8
}

func (r *refScan) tick() {
	assoc := r.m.arr.Assoc()
	var due []int
	for idx := range r.counters {
		set, way := idx/assoc, idx%assoc
		if !r.eligible(set, way) {
			continue
		}
		if r.counters[idx] < cache.DecayLevels {
			r.counters[idx]++
		}
		if r.counters[idx] >= cache.DecayLevels {
			due = append(due, idx)
		}
	}
	for _, idx := range due {
		r.m.RequestTurnOff(idx/assoc, idx%assoc)
	}
}

// eligible is the reference walk's predicate: the lines whose counter
// advances on a tick.
func (r *refScan) eligible(set, way int) bool {
	ln := r.m.arr.Line(set, way)
	st := r.m.LineState(set, way)
	return r.m.arr.Valid(set, way) && ln.Powered && ln.DecayArmed && st.Stable() &&
		!(r.skipModified && st == coherence.Modified)
}

// History operations, each mirroring what core.Controller does to the L2
// and which technique hooks it fires.
const (
	opFill       = iota // a bus fill into S, E or M, also onto a line in TD
	opRead              // a read hit (a line in TD still hits)
	opWrite             // a store reaches the L2: silent E→M, S→M upgrade, or a hit on M
	opSnoopRead         // a remote BusRd: M, TD and E downgrade to S
	opInvalidate        // a remote BusRdX: protocol invalidation
	opWriteBack         // a TD line's write-back completes and it gates
	opPending           // a store enters the L1 write buffer
)

// opMix weights the draw: a store leaves the write buffer three times as
// often as one enters it, so about a quarter of the blocks defer.
var opMix = [...]int{opFill, opFill, opFill, opRead, opRead, opRead, opWrite, opWrite, opWrite,
	opSnoopRead, opSnoopRead, opInvalidate, opWriteBack, opWriteBack, opPending}

type historyOp struct {
	kind  int
	block mem.Addr
	st    coherence.State
}

// apply performs op on m through spec's hooks and mirrors every counter
// reset into ref, if given.
func (m *mockController) apply(spec Spec, op historyOp, ref *refScan) {
	now := m.eng.Now()
	set, way, hit := m.arr.Lookup(op.block)
	resetRef := func() {
		if ref != nil {
			ref.counters[set*m.arr.Assoc()+way] = 0
		}
	}
	st := m.states[[2]int{set, way}]
	setState := func(to coherence.State) { m.states[[2]int{set, way}] = to }
	switch {
	case op.kind == opFill:
		if hit {
			if st == coherence.TransientDirty {
				m.tdFills++
			}
			m.arr.Touch(set, way)
		} else {
			// The victim is invalidated but not gated: the fill reuses the
			// way at once.
			way = m.arr.Victim(set)
			m.arr.Invalidate(set, way)
			m.arr.Install(op.block, set, way)
			m.arr.PowerOn(set, way, now)
			m.misses++
		}
		setState(op.st)
		spec.OnStateChange(m, set, way, op.st)
		resetRef()
	case op.kind == opPending:
		m.pending[op.block] = true
	case op.kind == opWrite:
		delete(m.pending, op.block)
		if !hit || st == coherence.TransientDirty {
			return
		}
		if st != coherence.Modified {
			setState(coherence.Modified)
			spec.OnStateChange(m, set, way, coherence.Modified)
		}
		m.arr.Touch(set, way)
		spec.OnHit(m, set, way)
		resetRef()
	case !hit:
	case op.kind == opRead:
		m.arr.Touch(set, way)
		spec.OnHit(m, set, way)
		resetRef()
	case op.kind == opSnoopRead && st != coherence.Shared:
		if st == coherence.TransientDirty {
			m.tdSnoops++
		}
		setState(coherence.Shared)
		spec.OnStateChange(m, set, way, coherence.Shared)
		resetRef()
	case op.kind == opInvalidate:
		m.arr.Invalidate(set, way)
		setState(coherence.Invalid)
		spec.OnProtocolInvalidate(m, set, way)
	case op.kind == opWriteBack && st == coherence.TransientDirty:
		m.arr.Invalidate(set, way)
		m.arr.PowerOff(set, way, now)
		setState(coherence.Invalid)
	}
}

// randomOp draws one history operation over a pool of twice as many blocks
// as the array holds, so fills also evict.
func randomOp(rng *sim.Rand, lines int) historyOp {
	op := historyOp{kind: opMix[rng.Intn(len(opMix))], block: mem.Addr(rng.Intn(2*lines)) * 64}
	op.st = [3]coherence.State{coherence.Shared, coherence.Exclusive, coherence.Modified}[rng.Intn(3)]
	return op
}

// requireSameLines compares the two arrays line by line: validity, power,
// arming and coherence state everywhere, and the derived counter against the
// reference counter on every line the reference walk would advance.
func requireSameLines(t *testing.T, tick uint64, got *mockController, ref *refScan) {
	t.Helper()
	assoc := got.arr.Assoc()
	for idx := range ref.counters {
		set, way := idx/assoc, idx%assoc
		g, w := got.arr.Line(set, way), ref.m.arr.Line(set, way)
		gv, wv := got.arr.Valid(set, way), ref.m.arr.Valid(set, way)
		gs, ws := got.LineState(set, way), ref.m.LineState(set, way)
		if gv != wv || g.Powered != w.Powered || g.DecayArmed != w.DecayArmed || gs != ws {
			t.Fatalf("tick %d, line %d: (valid, powered, armed, state) = (%v, %v, %v, %v), reference (%v, %v, %v, %v)",
				tick, idx, gv, g.Powered, g.DecayArmed, gs, wv, w.Powered, w.DecayArmed, ws)
		}
		if ref.eligible(set, way) && got.arr.DecayCounter(set, way) != int(ref.counters[idx]) {
			t.Fatalf("tick %d, line %d: counter %d, reference %d",
				tick, idx, got.arr.DecayCounter(set, way), ref.counters[idx])
		}
	}
}

// TestDueListTickMatchesReferenceScan runs the lockstep history for every
// decaying kind on a 1024-line array (16 bitmap words).  The history is
// applied between engine runs of at most 31 cycles, shorter than any tick
// period here (the adaptive kind's floor is 2048/8/4 = 64), so each engine
// run holds at most one tick and the reference ticks right after it, before
// any other operation.
func TestDueListTickMatchesReferenceScan(t *testing.T) {
	for _, kind := range []Kind{KindDecay, KindSelectiveDecay, KindAdaptive} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/seed=%d", kind, seed), func(t *testing.T) {
				spec := Spec{Kind: kind, DecayCycles: 2048}
				eng := sim.NewEngine()
				got := mockControllerSized(eng, 64*1024)
				want := mockControllerSized(eng, 64*1024)
				got.writeBacks, want.writeBacks = true, true
				want.arr.EnableDecay() // the hooks reset its (unused) bookkeeping too
				ref := &refScan{m: want, skipModified: kind == KindSelectiveDecay,
					counters: make([]uint8, want.arr.NumLines())}
				spec.Start(eng, got)

				rng := sim.NewRand(seed)
				var ticks uint64 // the ticks are the engine's only events
				for ticks < 400 {
					eng.RunUntil(eng.Now() + 1 + sim.Cycle(rng.Intn(31)))
					for ticks < eng.Executed {
						ticks++
						from := len(want.turnOffs)
						ref.tick()
						if len(got.turnOffs) != len(want.turnOffs) {
							t.Fatalf("tick %d: %d requests, reference %d",
								ticks, len(got.turnOffs)-from, len(want.turnOffs)-from)
						}
						for i := from; i < len(want.turnOffs); i++ {
							if got.turnOffs[i] != want.turnOffs[i] {
								t.Fatalf("tick %d: request %d is %v, reference %v",
									ticks, i-from, got.turnOffs[i], want.turnOffs[i])
							}
						}
						requireSameLines(t, ticks, got, ref)
					}
					for n := rng.Intn(4); n > 0; n-- {
						op := randomOp(rng, got.arr.NumLines())
						got.apply(spec, op, nil)
						want.apply(spec, op, ref)
					}
				}
				// The history must reach the paths the due list has to
				// reproduce.  Selective Decay never arms a Modified line,
				// so it never enters TD.
				reachesTD := kind != KindSelectiveDecay
				if len(got.turnOffs) == 0 || got.deferred == 0 ||
					reachesTD && (got.tdEntries == 0 || got.tdFills == 0 || got.tdSnoops == 0) {
					t.Fatalf("weak history: %d requests, %d deferred, %d TD entries, %d fills and %d snoops on TD",
						len(got.turnOffs), got.deferred, got.tdEntries, got.tdFills, got.tdSnoops)
				}
			})
		}
	}
}

// residentBank fills a 4096-line array through spec's hooks and marks every
// other block's write pending, then ticks until every line has saturated:
// the pending half stays resident (deferred) and every later tick requests
// it again; the rest has turned off.
func residentBank(spec Spec) (*mockController, *tickScanner) {
	eng := sim.NewEngine()
	m := mockControllerSized(eng, 256*1024)
	sc := newTickScanner(m, spec.Kind == KindSelectiveDecay)
	states := [3]coherence.State{coherence.Shared, coherence.Exclusive, coherence.Modified}
	for b := 0; b < m.arr.NumLines(); b++ {
		a := mem.Addr(b) * 64
		m.pending[a] = b%2 == 0
		m.install(spec, a, states[b%3])
	}
	for i := 0; i < cache.DecayLevels; i++ {
		sc.tick()
	}
	return m, sc
}

// A steady-state tick must not allocate: the bank's due list is reused and
// the bookkeeping is allocated once, at Start.
func TestTickScanAllocationFree(t *testing.T) {
	m, sc := residentBank(Spec{Kind: KindDecay, DecayCycles: 1000})
	tick := func() {
		// Recycle the request logs so their append growth (a test artefact,
		// not scanner behaviour) does not count against the tick.
		m.turnOffs, m.turnOffAt = m.turnOffs[:0], m.turnOffAt[:0]
		sc.tick()
	}
	tick()
	if len(m.turnOffs) != m.arr.NumLines()/2 {
		t.Fatalf("tick re-requested %d deferred lines, want %d", len(m.turnOffs), m.arr.NumLines()/2)
	}
	if allocs := testing.AllocsPerRun(10, tick); allocs != 0 {
		t.Fatalf("steady-state decay tick allocates %.1f objects/op, want 0", allocs)
	}
}
