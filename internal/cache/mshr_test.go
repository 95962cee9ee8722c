package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cmpleak/internal/mem"
	"cmpleak/internal/sim"
)

func TestMSHRAllocateAndMerge(t *testing.T) {
	m := NewMSHR(4)
	e, isNew := m.Allocate(0x100, false)
	if !isNew || e == nil {
		t.Fatal("first allocation should be new")
	}
	e2, isNew2 := m.Allocate(0x100, true)
	if isNew2 {
		t.Fatal("second allocation to same block should merge")
	}
	if e2 != e {
		t.Fatal("merge returned a different entry")
	}
	if !e.IsWrite {
		t.Fatal("merged write did not set IsWrite")
	}
	if m.Merges.Value() != 1 || m.Allocations.Value() != 1 {
		t.Fatal("merge/allocation counters wrong")
	}
}

func TestMSHRCapacity(t *testing.T) {
	m := NewMSHR(2)
	m.Allocate(0x100, false)
	m.Allocate(0x200, false)
	if !m.Full() {
		t.Fatal("MSHR should be full")
	}
	e, isNew := m.Allocate(0x300, false)
	if e != nil || isNew {
		t.Fatal("allocation beyond capacity should fail")
	}
	if m.FullStalls.Value() != 1 {
		t.Fatal("full stall not counted")
	}
	// Merging into an existing entry is still allowed when full.
	if e, _ := m.Allocate(0x200, false); e == nil {
		t.Fatal("merge rejected while full")
	}
}

func TestMSHRUnlimitedCapacity(t *testing.T) {
	m := NewMSHR(0)
	for i := 0; i < 1000; i++ {
		if e, _ := m.Allocate(mem.Addr(i*64), false); e == nil {
			t.Fatal("unlimited MSHR rejected an allocation")
		}
	}
	if m.Outstanding() != 1000 {
		t.Fatalf("outstanding %d, want 1000", m.Outstanding())
	}
}

func TestMSHRCompleteDeliversWaiters(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMSHR(4)
	e, _ := m.Allocate(0x100, false)
	calls := 0
	fn := func(arg any, block mem.Addr) {
		if block != 0x100 {
			t.Errorf("waiter delivered block %#x, want 0x100", block)
		}
		calls++
	}
	m.AddWaiter(e, fn, nil)
	m.AddWaiter(e, fn, nil)
	m.AddWaiter(e, nil, nil) // nil fn ignored
	if e.Waiters() != 2 {
		t.Fatalf("waiters %d, want 2", e.Waiters())
	}
	if n := m.CompleteDeliver(0x100, eng, 3); n != 2 {
		t.Fatalf("CompleteDeliver scheduled %d waiters, want 2", n)
	}
	if calls != 0 {
		t.Fatal("waiters fired before their latency elapsed")
	}
	eng.Run()
	if eng.Now() != 3 {
		t.Fatalf("delivery at cycle %d, want 3", eng.Now())
	}
	if calls != 2 {
		t.Fatalf("waiter calls %d, want 2", calls)
	}
	if m.Lookup(0x100) != nil {
		t.Fatal("entry survived completion")
	}
	if m.CompleteDeliver(0x100, eng, 3) != 0 {
		t.Fatal("completing an absent block should schedule nothing")
	}
}

// Waiters deliver in merge order (FIFO), carrying their registered args —
// the ordering the latency accounting of merged secondary misses relies on.
func TestMSHRWaiterDeliveryOrderAndArgs(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMSHR(4)
	e, _ := m.Allocate(0x200, false)
	var order []int
	fn := func(arg any, _ mem.Addr) { order = append(order, arg.(int)) }
	for i := 0; i < 5; i++ {
		m.AddWaiter(e, fn, i)
	}
	m.CompleteDeliver(0x200, eng, 1)
	eng.Run()
	if len(order) != 5 {
		t.Fatalf("delivered %d waiters, want 5", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("delivery order %v, want FIFO merge order", order)
		}
	}
}

// ScheduleDone is the hit-path twin of CompleteDeliver and shares its pool.
func TestMSHRScheduleDone(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMSHR(4)
	fired := false
	m.ScheduleDone(eng, 7, func(arg any, block mem.Addr) {
		if arg != nil || block != 0x300 {
			t.Errorf("ScheduleDone delivered (%v, %#x)", arg, block)
		}
		fired = true
	}, nil, 0x300)
	m.ScheduleDone(eng, 7, nil, nil, 0x300) // nil fn is a no-op
	eng.Run()
	if !fired {
		t.Fatal("ScheduleDone callback never fired")
	}
	if eng.Now() != 7 {
		t.Fatalf("delivery at cycle %d, want 7", eng.Now())
	}
}

// The steady-state miss path recycles entry and waiter records: after a
// warm-up allocation, a merge+complete cycle performs no heap allocations.
func TestMSHRSteadyStateAllocationFree(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMSHR(8)
	fn := func(any, mem.Addr) {}
	miss := func() {
		e, isNew := m.Allocate(0x400, false)
		if !isNew {
			t.Fatal("expected a fresh entry")
		}
		m.AddWaiter(e, fn, nil)
		m.AddWaiter(e, fn, nil)
		m.CompleteDeliver(0x400, eng, 1)
		eng.Run()
	}
	miss() // warm the pools
	if allocs := testing.AllocsPerRun(100, miss); allocs != 0 {
		t.Fatalf("steady-state MSHR miss cycle allocates %.1f objects/op, want 0", allocs)
	}
}

// Property: outstanding never exceeds capacity for a bounded MSHR.
func TestPropertyMSHRCapacityBound(t *testing.T) {
	eng := sim.NewEngine()
	f := func(blocks []uint8) bool {
		m := NewMSHR(4)
		for _, b := range blocks {
			m.Allocate(mem.Addr(b)*64, b%2 == 0)
			if b%3 == 0 {
				m.CompleteDeliver(mem.Addr(b)*64, eng, 0)
			}
			if m.Outstanding() > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
