package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cmpleak/internal/sim"
)

func TestBlockAddr(t *testing.T) {
	cases := []struct {
		addr  Addr
		size  uint64
		block Addr
	}{
		{0x0, 64, 0x0},
		{0x3f, 64, 0x0},
		{0x40, 64, 0x40},
		{0x7f, 64, 0x40},
		{0x12345, 64, 0x12340},
		{0x12345, 128, 0x12300},
	}
	for _, c := range cases {
		if got := BlockAddr(c.addr, c.size); got != c.block {
			t.Errorf("BlockAddr(%v,%d) = %v, want %v", c.addr, c.size, got, c.block)
		}
	}
}

func TestBlockOffset(t *testing.T) {
	if BlockOffset(0x47, 64) != 7 {
		t.Fatalf("BlockOffset(0x47,64) = %d, want 7", BlockOffset(0x47, 64))
	}
	if BlockOffset(0x40, 64) != 0 {
		t.Fatal("offset of aligned address should be 0")
	}
}

func TestIsPowerOfTwo(t *testing.T) {
	for _, v := range []uint64{1, 2, 4, 64, 1024, 1 << 40} {
		if !IsPowerOfTwo(v) {
			t.Errorf("IsPowerOfTwo(%d) = false", v)
		}
	}
	for _, v := range []uint64{0, 3, 5, 6, 63, 100} {
		if IsPowerOfTwo(v) {
			t.Errorf("IsPowerOfTwo(%d) = true", v)
		}
	}
}

func TestAddrString(t *testing.T) {
	if Addr(0xff).String() != "0xff" {
		t.Fatalf("Addr.String = %q", Addr(0xff).String())
	}
}

func TestMemoryReadLatency(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, Config{LatencyCycles: 100, BandwidthBytesPerCycle: 8, BlockSize: 64})
	lat := m.Access(Read)
	// 100 latency + 64/8 = 8 occupancy.
	if lat != 108 {
		t.Fatalf("read latency %d, want 108", lat)
	}
	if m.Reads.Value() != 1 || m.BytesRead.Value() != 64 {
		t.Fatalf("read accounting wrong: %d reads, %d bytes", m.Reads.Value(), m.BytesRead.Value())
	}
}

func TestMemoryWritePosted(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, Config{LatencyCycles: 100, BandwidthBytesPerCycle: 8, BlockSize: 64})
	lat := m.Access(Write)
	if lat != 8 {
		t.Fatalf("posted write latency %d, want 8 (occupancy only)", lat)
	}
	if m.Writes.Value() != 1 || m.BytesWritten.Value() != 64 {
		t.Fatal("write accounting wrong")
	}
}

func TestMemoryChannelContention(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, Config{LatencyCycles: 10, BandwidthBytesPerCycle: 8, BlockSize: 64})
	// Two back-to-back reads at cycle 0: the second must wait 8 cycles of
	// channel occupancy from the first.
	l1 := m.Access(Read)
	l2 := m.Access(Read)
	if l1 != 18 {
		t.Fatalf("first read latency %d, want 18", l1)
	}
	if l2 != 26 {
		t.Fatalf("second read latency %d, want 26 (8 stall + 18)", l2)
	}
	if m.StallCycles.Value() != 8 {
		t.Fatalf("stall cycles %d, want 8", m.StallCycles.Value())
	}
}

func TestMemoryTotals(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, DefaultConfig())
	m.Access(Read)
	m.Access(Write)
	m.Access(Write)
	if m.TotalAccesses() != 3 {
		t.Fatalf("TotalAccesses %d, want 3", m.TotalAccesses())
	}
	if m.TotalBytes() != 3*m.Config().BlockSize {
		t.Fatalf("TotalBytes %d", m.TotalBytes())
	}
}

func TestMemoryDefaultsApplied(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, Config{LatencyCycles: 5})
	if m.Config().BlockSize == 0 || m.Config().BandwidthBytesPerCycle <= 0 {
		t.Fatal("defaults not applied for zero-valued config fields")
	}
}

// Property: block addresses are always aligned and contain the original
// address.
func TestPropertyBlockAlignment(t *testing.T) {
	f := func(raw uint64, szExp uint8) bool {
		size := uint64(1) << (4 + szExp%6) // 16..512 bytes
		a := Addr(raw)
		b := BlockAddr(a, size)
		if uint64(b)%size != 0 {
			return false
		}
		return uint64(a) >= uint64(b) && uint64(a) < uint64(b)+size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
