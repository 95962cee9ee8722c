package decay

import (
	"reflect"
	"testing"

	"cmpleak/internal/cache"
	"cmpleak/internal/coherence"
	"cmpleak/internal/sim"
)

// bigMockController is a mockController over an array large enough to need
// several stripes at the test stripe size.
func bigMockController(eng *sim.Engine) *mockController {
	cfg := cache.Config{Name: "bigL2", SizeBytes: 256 * 1024, LineBytes: 64, Assoc: 4, LatencyCycles: 6}
	return &mockController{
		eng:    eng,
		arr:    cache.MustNew(cfg),
		states: make(map[[2]int]coherence.State),
	}
}

// populate fills the array with a deterministic mix of states, arming and
// counter values so a tick both advances counters and triggers turn-offs.
func populate(m *mockController) {
	arr := m.arr
	n := arr.NumLines()
	assoc := arr.Assoc()
	for idx := 0; idx < n; idx++ {
		if idx%3 == 0 {
			continue // leave a third of the lines invalid
		}
		set, way := idx/assoc, idx%assoc
		st := coherence.Shared
		switch idx % 5 {
		case 1:
			st = coherence.Exclusive
		case 2:
			st = coherence.Modified
		case 4:
			st = coherence.TransientDirty
		}
		arr.Install(0, set, way, 0)
		ln := arr.Line(set, way)
		ln.Tag = 0 // tag is irrelevant here; the scan never reads it
		arr.PowerOn(set, way, 0)
		m.states[[2]int{set, way}] = st
		ln.State = uint8(st)
		ln.DecayArmed = idx%7 != 0
		ln.DecayCounter = uint8(idx % (counterLevels + 1))
	}
}

// snapshot captures the observable per-line decay state.
func snapshot(arr *cache.Cache) [][4]uint8 {
	out := make([][4]uint8, arr.NumLines())
	for i := 0; i < arr.NumLines(); i++ {
		ln := arr.LineAt(i)
		out[i] = [4]uint8{b2u(ln.Valid), b2u(ln.Powered), b2u(ln.DecayArmed), ln.DecayCounter}
	}
	return out
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// runTicks drives `ticks` global ticks through a tickScanner at the given
// stripe size and returns the final line state and turn-off sequence.
func runTicks(t *testing.T, stripe, ticks int) ([][4]uint8, [][2]int) {
	t.Helper()
	old := stripeLines
	stripeLines = stripe
	defer func() { stripeLines = old }()

	eng := sim.NewEngine()
	m := bigMockController(eng)
	populate(m)
	sc := newTickScanner(eng, m, false)
	for i := 0; i < ticks; i++ {
		eng.Schedule(sim.Cycle(100*(i+1))-eng.Now(), sc.tick)
		eng.Run()
	}
	return snapshot(m.arr), m.turnOffs
}

// The striped scan must be observably identical to a monolithic whole-array
// scan: same counter advances, same turn-off sequence, same final state.
// The golden sweep digest only exercises single-stripe arrays, so this is
// the test that pins multi-stripe equivalence.
func TestStripedScanMatchesMonolithic(t *testing.T) {
	n := 256 * 1024 / 64 // 4096 lines
	wantState, wantOffs := runTicks(t, n, counterLevels+1)
	for _, stripe := range []int{64, 1000, n - 1} {
		gotState, gotOffs := runTicks(t, stripe, counterLevels+1)
		if !reflect.DeepEqual(gotState, wantState) {
			t.Fatalf("stripe size %d: final line state diverges from monolithic scan", stripe)
		}
		if !reflect.DeepEqual(gotOffs, wantOffs) {
			t.Fatalf("stripe size %d: turn-off sequence diverges (%d vs %d requests)",
				stripe, len(gotOffs), len(wantOffs))
		}
	}
	if len(wantOffs) == 0 {
		t.Fatal("scan never requested a turn-off; the fixture is too weak")
	}
}

// A steady-state tick must not allocate: the scratch buffer is reused and
// the stripe continuations ride pooled engine events.
func TestTickScanAllocationFree(t *testing.T) {
	old := stripeLines
	stripeLines = 256
	defer func() { stripeLines = old }()

	eng := sim.NewEngine()
	m := bigMockController(eng)
	populate(m)
	m.deferTurnOff = true // keep lines resident so every tick rescans them
	sc := newTickScanner(eng, m, false)
	tickFn := sc.tick // bind once: a per-call method value would allocate
	tick := func() {
		// Recycle the request logs so their append growth (a test artefact,
		// not scanner behaviour) does not count against the scan.
		m.turnOffs, m.turnOffAt = m.turnOffs[:0], m.turnOffAt[:0]
		eng.Schedule(1, tickFn)
		eng.Run()
	}
	tick() // warm up: grows the scratch buffer to its steady-state size
	tick()
	if allocs := testing.AllocsPerRun(10, tick); allocs != 0 {
		t.Fatalf("steady-state decay tick allocates %.1f objects/op, want 0", allocs)
	}
}
