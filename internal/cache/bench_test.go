package cache

// Microbenchmarks for the flat-array cache and the pooled MSHR.  Run with
// -benchmem: the Lookup/Touch/MSHR paths must report 0 allocs/op, and
// OnCycles must show the same ns/op from 64 KB to 8 MB (it is O(1): an
// aggregate advanced at each power transition, not a scan).

import (
	"fmt"
	"testing"

	"cmpleak/internal/mem"
	"cmpleak/internal/sim"
)

func benchConfig(sizeBytes uint64) Config {
	return Config{Name: "bench", SizeBytes: sizeBytes, LineBytes: 64, Assoc: 8, LatencyCycles: 12}
}

func BenchmarkLookupHit(b *testing.B) {
	c := MustNew(benchConfig(1 << 20))
	addrs := make([]mem.Addr, 64)
	for i := range addrs {
		a := mem.Addr(i * 64)
		set, _, _ := c.Lookup(a)
		c.Install(a, set, c.Victim(set))
		addrs[i] = a
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i&63]
		set, way, hit := c.Lookup(a)
		if !hit {
			b.Fatal("benchmark address missed")
		}
		c.Touch(set, way)
	}
}

func BenchmarkVictim(b *testing.B) {
	c := MustNew(benchConfig(1 << 20))
	sets := c.Config().NumSets()
	// Fill everything so Victim exercises the full-set LRU extraction.
	for i := 0; i < c.Config().NumLines(); i++ {
		a := mem.Addr(i * 64)
		set, _, _ := c.Lookup(a)
		c.Install(a, set, c.Victim(set))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Victim(i & (sets - 1))
	}
}

// BenchmarkVictimAssoc measures victim selection across associativities on a
// full cache.  The stamp scheme scanned all ways (ns/op grew with assoc);
// the packed ranks extract the LRU way from one permutation word, so the
// three curves should sit on top of each other.
func BenchmarkVictimAssoc(b *testing.B) {
	for _, assoc := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("assoc%d", assoc), func(b *testing.B) {
			cfg := benchConfig(1 << 20)
			cfg.Assoc = assoc
			c := MustNew(cfg)
			sets := c.Config().NumSets()
			for i := 0; i < c.Config().NumLines(); i++ {
				a := mem.Addr(i * 64)
				set, _, _ := c.Lookup(a)
				c.Install(a, set, c.Victim(set))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = c.Victim(i & (sets - 1))
			}
		})
	}
}

// TestVictimTouchAllocationFree guards the replacement hot path (`make
// test-allocs`): victim selection and MRU promotion must not allocate.
func TestVictimTouchAllocationFree(t *testing.T) {
	c := MustNew(benchConfig(1 << 16))
	for i := 0; i < c.Config().NumLines(); i++ {
		a := mem.Addr(i * 64)
		set, _, _ := c.Lookup(a)
		c.Install(a, set, c.Victim(set))
	}
	i := 0
	if allocs := testing.AllocsPerRun(500, func() {
		set := i & (c.Config().NumSets() - 1)
		way := c.Victim(set)
		c.Touch(set, way)
		i++
	}); allocs != 0 {
		t.Errorf("Victim+Touch allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkOnCycles measures the powered-cycle integral read at several
// array sizes.  Before the incremental aggregate this walked every line
// (O(lines), ~128k lines at 8 MB); now every size costs the same few ns.
func BenchmarkOnCycles(b *testing.B) {
	for _, mb := range []int{0, 1, 4, 8} {
		size := uint64(64 * 1024)
		label := "64KB"
		if mb > 0 {
			size = uint64(mb) << 20
			label = fmt.Sprintf("%dMB", mb)
		}
		b.Run(label, func(b *testing.B) {
			c := MustNew(benchConfig(size))
			c.PowerOnAll(0)
			// A few transitions so the aggregate has real state.
			c.PowerOff(0, 0, 100)
			c.PowerOn(0, 0, 200)
			b.ReportAllocs()
			b.ResetTimer()
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += c.OnCycles(sim.Cycle(1000 + i))
			}
			_ = sink
		})
	}
}

// BenchmarkMSHRMissCycle is the pooled allocate→merge→complete round trip
// of one miss with two merged requests: 0 allocs/op in steady state.
func BenchmarkMSHRMissCycle(b *testing.B) {
	eng := sim.NewEngine()
	m := NewMSHR(16)
	fn := func(any, mem.Addr) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		block := mem.Addr(i&7) * 64
		e, _ := m.Allocate(block, false)
		m.AddWaiter(e, fn, nil)
		m.AddWaiter(e, fn, nil)
		m.CompleteDeliver(block, eng, 1)
		eng.Run()
	}
}
