package coherence

import (
	"strings"
	"testing"

	"cmpleak/internal/cache"
	"cmpleak/internal/mem"
	"cmpleak/internal/sim"
)

// fakeL2 is a scripted LowerLevel that answers reads and writes after a
// fixed latency and records the blocks it saw.
type fakeL2 struct {
	eng          *sim.Engine
	readLatency  sim.Cycle
	writeLatency sim.Cycle
	reads        []mem.Addr
	writes       []mem.Addr
}

func (f *fakeL2) Read(block mem.Addr, done cache.DoneFunc, arg any) {
	f.reads = append(f.reads, block)
	if done != nil {
		f.eng.Schedule(f.readLatency, func() { done(arg, block) })
	}
}

func (f *fakeL2) Write(block mem.Addr, done cache.DoneFunc, arg any) {
	f.writes = append(f.writes, block)
	if done != nil {
		f.eng.Schedule(f.writeLatency, func() { done(arg, block) })
	}
}

func newL1UnderTest(t *testing.T) (*sim.Engine, *fakeL2, *L1Controller) {
	t.Helper()
	eng := sim.NewEngine()
	l2 := &fakeL2{eng: eng, readLatency: 20, writeLatency: 10}
	cfg := DefaultL1Config("L1-test")
	l1, err := NewL1Controller(0, eng, cfg)
	if err != nil {
		t.Fatalf("NewL1Controller: %v", err)
	}
	l1.SetLowerLevel(l2)
	return eng, l2, l1
}

func TestL1ReadMissThenHit(t *testing.T) {
	eng, l2, l1 := newL1UnderTest(t)
	var firstDone, secondDone sim.Cycle
	l1.Read(0x1000, func() { firstDone = eng.Now() })
	eng.Run()
	if len(l2.reads) != 1 || l2.reads[0] != 0x1000 {
		t.Fatalf("L2 saw reads %v, want [0x1000]", l2.reads)
	}
	if firstDone == 0 {
		t.Fatal("read completion never fired")
	}
	if l1.LoadMisses.Value() != 1 {
		t.Fatal("miss not counted")
	}

	l1.Read(0x1000, func() { secondDone = eng.Now() })
	eng.Run()
	if len(l2.reads) != 1 {
		t.Fatal("hit should not reach the L2")
	}
	if l1.LoadHits.Value() != 1 {
		t.Fatal("hit not counted")
	}
	if secondDone-firstDone >= firstDone {
		t.Fatalf("hit latency (%d) should be far smaller than miss latency (%d)", secondDone-firstDone, firstDone)
	}
}

func TestL1ReadMergesSecondaryMisses(t *testing.T) {
	eng, l2, l1 := newL1UnderTest(t)
	completions := 0
	l1.Read(0x2000, func() { completions++ })
	l1.Read(0x2008, func() { completions++ }) // same 64-byte block
	eng.Run()
	if len(l2.reads) != 1 {
		t.Fatalf("secondary miss issued %d L2 reads, want 1", len(l2.reads))
	}
	if completions != 2 {
		t.Fatalf("completions %d, want 2", completions)
	}
}

func TestL1WriteThroughAlwaysReachesL2(t *testing.T) {
	eng, l2, l1 := newL1UnderTest(t)
	done := 0
	// Store miss: no-write-allocate, still propagated.
	l1.Write(0x3000, func() { done++ })
	eng.Run()
	if len(l2.writes) != 1 || l2.writes[0] != 0x3000 {
		t.Fatalf("L2 saw writes %v, want [0x3000]", l2.writes)
	}
	if l1.StoreMisses.Value() != 1 {
		t.Fatal("store miss not counted")
	}
	// Bring the block in, then a store hit must also be written through.
	l1.Read(0x3000, nil)
	eng.Run()
	l1.Write(0x3004, func() { done++ })
	eng.Run()
	if len(l2.writes) != 2 {
		t.Fatalf("store hit did not write through: %v", l2.writes)
	}
	if l1.StoreHits.Value() != 1 {
		t.Fatal("store hit not counted")
	}
	if done != 2 {
		t.Fatalf("store completions %d, want 2", done)
	}
}

func TestL1WriteCoalescingInBuffer(t *testing.T) {
	eng, l2, l1 := newL1UnderTest(t)
	// Burst of stores to the same block: the write buffer coalesces them,
	// so fewer L2 writes than stores are acceptable, but at least one must
	// reach the L2.
	for i := 0; i < 8; i++ {
		l1.Write(0x4000+mem.Addr(i*4), nil)
	}
	eng.Run()
	if len(l2.writes) == 0 {
		t.Fatal("no write reached the L2")
	}
	if len(l2.writes) > 8 {
		t.Fatalf("more L2 writes (%d) than stores (8)", len(l2.writes))
	}
	if l1.WriteBuffer().Len() != 0 {
		t.Fatal("write buffer not fully drained")
	}
}

func TestL1BackInvalidation(t *testing.T) {
	eng, _, l1 := newL1UnderTest(t)
	l1.Read(0x5000, nil)
	eng.Run()
	if got := l1.InvalidateBlock(0x5000); !got {
		t.Fatal("back-invalidation of a present block returned false")
	}
	if got := l1.InvalidateBlock(0x5000); got {
		t.Fatal("second invalidation should find nothing")
	}
	if l1.BackInvalidates.Value() != 1 {
		t.Fatal("back-invalidation not counted")
	}
	// The next read must miss again.
	l1.Read(0x5000, nil)
	eng.Run()
	if l1.LoadMisses.Value() != 2 {
		t.Fatalf("load misses %d, want 2", l1.LoadMisses.Value())
	}
}

func TestL1HasPendingWrite(t *testing.T) {
	eng := sim.NewEngine()
	// A very slow L2 keeps the store in the buffer long enough to observe.
	l2 := &fakeL2{eng: eng, readLatency: 20, writeLatency: 1000}
	cfg := DefaultL1Config("L1-test")
	l1, _ := NewL1Controller(0, eng, cfg)
	l1.SetLowerLevel(l2)
	l1.Write(0x6000, nil)
	l1.Write(0x6040, nil)
	// The first store drains immediately; the second stays buffered until
	// the slow L2 write completes.
	eng.RunUntil(50)
	if !l1.HasPendingWrite(0x6040) {
		t.Fatal("pending write not visible")
	}
	eng.Run()
	if l1.HasPendingWrite(0x6040) {
		t.Fatal("drained write still reported pending")
	}
}

func TestL1Statistics(t *testing.T) {
	eng, _, l1 := newL1UnderTest(t)
	l1.Read(0x100, nil)
	l1.Write(0x200, nil)
	eng.Run()
	if l1.Accesses() != 2 {
		t.Fatalf("accesses %d, want 2", l1.Accesses())
	}
	if l1.MissRate() <= 0 || l1.MissRate() > 1 {
		t.Fatalf("miss rate %v out of range", l1.MissRate())
	}
	if l1.AMAT() <= 0 {
		t.Fatal("AMAT should be positive after a load")
	}
	if l1.ID() != 0 {
		t.Fatal("ID mismatch")
	}
}

func TestL1RejectsBadConfig(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultL1Config("bad")
	cfg.Cache.LineBytes = 48
	if _, err := NewL1Controller(0, eng, cfg); err == nil {
		t.Fatal("invalid cache geometry accepted")
	}
}

// DefaultL1Config is the one place the retry back-off, the drain gap and
// the MSHR and write-buffer sizes are defaulted: NewL1Controller refuses a
// zero for any of them rather than filling one in.
func TestL1InitRefusesZeroCycles(t *testing.T) {
	for name, zero := range map[string]func(*L1Config){
		"RetryCycles":      func(c *L1Config) { c.RetryCycles = 0 },
		"DrainGapCycles":   func(c *L1Config) { c.DrainGapCycles = 0 },
		"MSHREntries":      func(c *L1Config) { c.MSHREntries = 0 },
		"WriteBufferSlots": func(c *L1Config) { c.WriteBufferSlots = 0 },
	} {
		cfg := DefaultL1Config("L1-zero")
		zero(&cfg)
		_, err := NewL1Controller(0, sim.NewEngine(), cfg)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("NewL1Controller with zero %s: err = %v, want one naming %s", name, err, name)
		}
	}
}

// Stores that found the write buffer full must be admitted in FIFO order as
// drains free slots, with their done callbacks and acceptance delays
// reflecting that order — the contract of the FIFO stall queue.
func TestL1StalledStoresAdmittedFIFO(t *testing.T) {
	eng := sim.NewEngine()
	l2 := &fakeL2{eng: eng, readLatency: 20, writeLatency: 200}
	cfg := DefaultL1Config("L1-fifo")
	cfg.WriteBufferSlots = 2
	l1, err := NewL1Controller(0, eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l1.SetLowerLevel(l2)

	const stores = 6
	var accepted []int
	blocks := make([]mem.Addr, stores)
	for i := 0; i < stores; i++ {
		i := i
		blocks[i] = mem.Addr(0x7000 + i*64)
		l1.Write(blocks[i], func() { accepted = append(accepted, i) })
	}
	if l1.RetryEvents.Value() == 0 {
		t.Fatal("fixture broken: no store ever stalled on a full write buffer")
	}
	eng.Run()

	if len(accepted) != stores {
		t.Fatalf("%d stores completed, want %d", len(accepted), stores)
	}
	for i, v := range accepted {
		if v != i {
			t.Fatalf("stores accepted out of order: %v", accepted)
		}
	}
	if got := l2.writes; len(got) != stores {
		t.Fatalf("L2 saw %d writes, want %d", len(got), stores)
	}
	for i, b := range l2.writes {
		if b != blocks[i] {
			t.Fatalf("drain order %v, want FIFO block order %v", l2.writes, blocks)
		}
	}
	if n := l1.StoreAcceptDelay.Count(); n != stores {
		t.Fatalf("acceptance delay observations %d, want %d", n, stores)
	}
	// Later stores waited at least as long as earlier ones.
	if l1.StoreAcceptDelay.Max() == 0 {
		t.Fatal("stalled stores recorded zero acceptance delay")
	}
}

// Under sustained pressure the stall queue churns (one admit per drain, one
// new stall behind it) without ever emptying; its backing array must stay
// bounded by the live entry count instead of growing with every stall ever
// observed.
func TestL1StalledStoreQueueFootprintBounded(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultL1Config("L1-compact")
	cfg.WriteBufferSlots = 1
	l1, err := NewL1Controller(0, eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l1.wb.Push(0xF000) // occupy the single slot so new stores always stall
	// One resident entry keeps the queue non-empty across every step.
	l1.stalledStores = append(l1.stalledStores, pendingStore{block: 0x10000})
	var admitted []mem.Addr
	for i := 1; i <= 1000; i++ {
		l1.stalledStores = append(l1.stalledStores, pendingStore{block: mem.Addr(0x10000 + i*64)})
		got, _ := l1.wb.Pop() // a drain frees the slot
		admitted = append(admitted, got)
		l1.admitStalledStores() // admits the oldest; the next entry stalls again
		if live := len(l1.stalledStores); live != 1 {
			t.Fatalf("fixture broken: %d live stalls after step %d, want 1", live, i)
		}
		if n := cap(l1.stalledStores); n > 64 {
			t.Fatalf("backing array grew to %d entries with 1 live stall after %d churn steps", n, i)
		}
	}
	// FIFO preserved: drains saw the blocks in stall order.
	for i := 1; i < len(admitted); i++ {
		if admitted[i] != mem.Addr(0x10000+(i-1)*64) {
			t.Fatalf("drain %d saw block %#x, want FIFO order", i, admitted[i])
		}
	}
}

// A secondary miss merged onto an outstanding MSHR entry completes with the
// primary fill, and the AMAT accumulator records each waiter's own issue-to
// -completion latency.
func TestL1MergedMissLatencyAccounting(t *testing.T) {
	eng, l2, l1 := newL1UnderTest(t)
	var t1, t2 sim.Cycle
	l1.Read(0x8000, func() { t1 = eng.Now() })
	eng.RunUntil(5)                            // let 5 cycles pass before the secondary miss
	l1.Read(0x8008, func() { t2 = eng.Now() }) // same 64-byte block: merges
	eng.Run()

	if len(l2.reads) != 1 {
		t.Fatalf("merged miss issued %d L2 reads, want 1", len(l2.reads))
	}
	if l1.LoadMisses.Value() != 2 {
		t.Fatalf("load misses %d, want 2", l1.LoadMisses.Value())
	}
	if t1 == 0 || t1 != t2 {
		t.Fatalf("merged waiters completed at %d and %d, want the same fill cycle", t1, t2)
	}
	if n := l1.LoadLatency.Count(); n != 2 {
		t.Fatalf("latency observations %d, want 2", n)
	}
	wantSum := uint64(t1) + uint64(t2-5)
	if got := l1.LoadLatency.Sum(); got != wantSum {
		t.Fatalf("latency sum %d, want %d (per-waiter issue-to-completion)", got, wantSum)
	}
}

func TestL1MSHRFullRetries(t *testing.T) {
	eng := sim.NewEngine()
	l2 := &fakeL2{eng: eng, readLatency: 500, writeLatency: 10}
	cfg := DefaultL1Config("L1-tiny")
	cfg.MSHREntries = 2
	l1, _ := NewL1Controller(0, eng, cfg)
	l1.SetLowerLevel(l2)
	completions := 0
	for i := 0; i < 6; i++ {
		l1.Read(mem.Addr(0x9000+i*64), func() { completions++ })
	}
	eng.Run()
	if completions != 6 {
		t.Fatalf("completions %d, want 6 (retries must eventually succeed)", completions)
	}
	if l1.RetryEvents.Value() == 0 {
		t.Fatal("MSHR-full retries not recorded")
	}
}
