package core

// Miss-path microbenchmarks over the full L1→MSHR→bus→memory→L2-fill→L1
// pipeline.  Run with -benchmem: both must report 0 allocs/op — the
// acceptance criterion of the allocation-free miss path.

import (
	"testing"

	"cmpleak/internal/decay"
	"cmpleak/internal/mem"
)

func BenchmarkL1LoadHit(b *testing.B) {
	eng, l1, _ := newLoadPathRig(b, decay.Spec{})
	const addr = mem.Addr(0x40)
	l1.Read(addr, nil)
	eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l1.Read(addr, nil)
		eng.Run()
	}
}

func BenchmarkL1LoadMissL2Fill(b *testing.B) {
	eng, l1, _ := newLoadPathRig(b, decay.Spec{})
	for j := 0; j < 4*missBlocks; j++ {
		l1.Read(mem.Addr(j%missBlocks)*missStride, nil)
		eng.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l1.Read(mem.Addr(i%missBlocks)*missStride, nil)
		eng.Run()
	}
}
