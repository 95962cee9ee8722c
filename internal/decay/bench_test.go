package decay

// Benchmark for one global decay tick over a fully resident 256 KB bank
// (4096 lines, the per-core share of the paper's 1 MB configuration).
// Run with -benchmem: 0 allocs/op — the scratch buffer is reused and the
// stripe continuations ride pooled engine events.

import (
	"testing"

	"cmpleak/internal/sim"
)

func BenchmarkDecayTick(b *testing.B) {
	eng := sim.NewEngine()
	m := bigMockController(eng)
	populate(m)
	m.deferTurnOff = true // keep the array resident: every tick rescans it
	sc := newTickScanner(eng, m, false)
	tickFn := sc.tick
	run := func() {
		m.turnOffs, m.turnOffAt = m.turnOffs[:0], m.turnOffAt[:0]
		eng.Schedule(1, tickFn)
		eng.Run()
	}
	// Warm until every armed line has saturated, so the fixture's request
	// log reaches its steady-state capacity and stops growing.
	for i := 0; i < counterLevels+1; i++ {
		run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
