package decay

// Benchmark for one global decay tick over a resident 256 KB bank (4096
// lines, the per-core share of the paper's 1 MB configuration) whose 2048
// deferred lines every tick requests again: the tick's worst steady state.
// Run with -benchmem: 0 allocs/op — the bank's due list is reused.

import "testing"

func BenchmarkDecayTick(b *testing.B) {
	m, sc := residentBank(Spec{Kind: KindDecay, DecayCycles: 1000})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.turnOffs, m.turnOffAt = m.turnOffs[:0], m.turnOffAt[:0]
		sc.tick()
	}
}
