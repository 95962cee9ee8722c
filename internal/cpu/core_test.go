package cpu

import (
	"testing"

	"cmpleak/internal/mem"
	"cmpleak/internal/sim"
	"cmpleak/internal/workload"
)

// fakeL1 services reads after a fixed latency and writes after one cycle,
// recording the addresses it saw.
type fakeL1 struct {
	eng         *sim.Engine
	readLatency sim.Cycle
	reads       []mem.Addr
	writes      []mem.Addr
	// concurrentReads tracks the maximum observed read overlap.
	inFlight        int
	maxInFlight     int
	failOnZeroReads bool
}

func (f *fakeL1) Read(a mem.Addr, done func()) {
	f.reads = append(f.reads, a)
	f.inFlight++
	if f.inFlight > f.maxInFlight {
		f.maxInFlight = f.inFlight
	}
	f.eng.Schedule(f.readLatency, func() {
		f.inFlight--
		done()
	})
}

func (f *fakeL1) Write(a mem.Addr, done func()) {
	f.writes = append(f.writes, a)
	f.eng.Schedule(1, done)
}

// sliceStream replays a fixed slice of entries.
type sliceStream struct{ entries []workload.Entry }

// NextBatch implements workload.Stream.
func (s *sliceStream) NextBatch(buf []workload.Entry) int {
	n := copy(buf, s.entries)
	s.entries = s.entries[n:]
	return n
}

func entriesOf(ops ...workload.Entry) workload.Stream {
	return &sliceStream{entries: ops}
}

func TestCoreConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{IssueWidth: 0, MaxOutstandingLoads: 1, MaxOutstandingStores: 1},
		{IssueWidth: 4, MaxOutstandingLoads: 0, MaxOutstandingStores: 1},
		{IssueWidth: 4, MaxOutstandingLoads: 1, MaxOutstandingStores: 0},
	}
	for _, c := range bad {
		if c.Validate() == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
	eng := sim.NewEngine()
	if _, err := New(0, eng, bad[0], &fakeL1{eng: eng}, entriesOf()); err == nil {
		t.Fatal("New accepted an invalid config")
	}
	if _, err := New(0, eng, DefaultConfig(), nil, entriesOf()); err == nil {
		t.Fatal("New accepted a nil L1")
	}
	if _, err := New(0, eng, DefaultConfig(), &fakeL1{eng: eng}, nil); err == nil {
		t.Fatal("New accepted a nil stream")
	}
}

func TestCoreRunsComputeOnlyStream(t *testing.T) {
	eng := sim.NewEngine()
	l1 := &fakeL1{eng: eng, readLatency: 10}
	stream := entriesOf(
		workload.Entry{ComputeInstrs: 40},
		workload.Entry{ComputeInstrs: 40},
	)
	c, err := New(0, eng, DefaultConfig(), l1, stream)
	if err != nil {
		t.Fatal(err)
	}
	doneID := -1
	c.OnDone(func(id int) { doneID = id })
	c.Start()
	eng.Run()
	if !c.Done() {
		t.Fatal("core did not finish")
	}
	if doneID != 0 {
		t.Fatal("OnDone not fired with core id")
	}
	if c.Instructions.Value() != 80 {
		t.Fatalf("instructions %d, want 80", c.Instructions.Value())
	}
	// 80 instructions at width 4 = 20 cycles.
	if c.Cycles() != 20 {
		t.Fatalf("cycles %d, want 20", c.Cycles())
	}
	if ipc := c.IPC(); ipc < 3.9 || ipc > 4.1 {
		t.Fatalf("IPC %v, want ~4", ipc)
	}
}

func TestCoreIssuesMemoryOps(t *testing.T) {
	eng := sim.NewEngine()
	l1 := &fakeL1{eng: eng, readLatency: 50}
	stream := entriesOf(
		workload.Entry{ComputeInstrs: 4, Op: workload.Load, Addr: 0x100},
		workload.Entry{ComputeInstrs: 4, Op: workload.Store, Addr: 0x200},
		workload.Entry{ComputeInstrs: 4, Op: workload.Load, Addr: 0x300},
	)
	c, _ := New(1, eng, DefaultConfig(), l1, stream)
	c.Start()
	eng.Run()
	if len(l1.reads) != 2 || len(l1.writes) != 1 {
		t.Fatalf("L1 saw %d reads / %d writes, want 2/1", len(l1.reads), len(l1.writes))
	}
	if c.LoadsIssued.Value() != 2 || c.StoresIssued.Value() != 1 {
		t.Fatal("issue counters wrong")
	}
	if !c.Done() {
		t.Fatal("core did not finish after draining requests")
	}
	// Instructions: 3*4 compute + 3 memory ops = 15.
	if c.Instructions.Value() != 15 {
		t.Fatalf("instructions %d, want 15", c.Instructions.Value())
	}
}

func TestCoreOverlapsLoads(t *testing.T) {
	eng := sim.NewEngine()
	l1 := &fakeL1{eng: eng, readLatency: 200}
	var entries []workload.Entry
	for i := 0; i < 6; i++ {
		entries = append(entries, workload.Entry{ComputeInstrs: 1, Op: workload.Load, Addr: mem.Addr(0x1000 + i*64)})
	}
	cfg := DefaultConfig()
	cfg.MaxOutstandingLoads = 4
	c, _ := New(0, eng, cfg, l1, entriesOf(entries...))
	c.Start()
	eng.Run()
	if l1.maxInFlight < 2 {
		t.Fatalf("loads never overlapped (max in flight %d)", l1.maxInFlight)
	}
	if l1.maxInFlight > 4 {
		t.Fatalf("MLP limit violated: %d loads in flight", l1.maxInFlight)
	}
}

func TestCoreMLPLimitStallsAndResumes(t *testing.T) {
	eng := sim.NewEngine()
	l1 := &fakeL1{eng: eng, readLatency: 100}
	var entries []workload.Entry
	for i := 0; i < 10; i++ {
		entries = append(entries, workload.Entry{ComputeInstrs: 0, Op: workload.Load, Addr: mem.Addr(0x2000 + i*64)})
	}
	cfg := DefaultConfig()
	cfg.MaxOutstandingLoads = 2
	c, _ := New(0, eng, cfg, l1, entriesOf(entries...))
	c.Start()
	eng.Run()
	if !c.Done() {
		t.Fatal("core stuck after MLP stalls")
	}
	if len(l1.reads) != 10 {
		t.Fatalf("issued %d loads, want 10", len(l1.reads))
	}
	if c.StallCycles.Value() == 0 {
		t.Fatal("stall cycles should be recorded when MLP-limited")
	}
}

func TestCoreSlowMemoryLowersIPC(t *testing.T) {
	build := func(lat sim.Cycle) float64 {
		eng := sim.NewEngine()
		l1 := &fakeL1{eng: eng, readLatency: lat}
		var entries []workload.Entry
		for i := 0; i < 50; i++ {
			entries = append(entries, workload.Entry{ComputeInstrs: 8, Op: workload.Load, Addr: mem.Addr(0x4000 + i*64)})
		}
		cfg := DefaultConfig()
		cfg.MaxOutstandingLoads = 2
		c, _ := New(0, eng, cfg, l1, entriesOf(entries...))
		c.Start()
		eng.Run()
		return c.IPC()
	}
	fast := build(5)
	slow := build(500)
	if slow >= fast {
		t.Fatalf("IPC with slow memory (%v) should be below fast memory (%v)", slow, fast)
	}
}

func TestCoreStartIdempotent(t *testing.T) {
	eng := sim.NewEngine()
	l1 := &fakeL1{eng: eng, readLatency: 5}
	c, _ := New(0, eng, DefaultConfig(), l1, entriesOf(workload.Entry{ComputeInstrs: 8}))
	c.Start()
	c.Start()
	eng.Run()
	if c.Instructions.Value() != 8 {
		t.Fatalf("double start corrupted execution: %d instructions", c.Instructions.Value())
	}
	if c.ID() != 0 {
		t.Fatal("ID wrong")
	}
}

func TestCoreEmptyStreamFinishesImmediately(t *testing.T) {
	eng := sim.NewEngine()
	l1 := &fakeL1{eng: eng, readLatency: 5}
	c, _ := New(3, eng, DefaultConfig(), l1, entriesOf())
	fired := false
	c.OnDone(func(id int) { fired = true })
	c.Start()
	eng.Run()
	if !c.Done() || !fired {
		t.Fatal("empty stream core did not finish")
	}
	if c.IPC() != 0 {
		t.Fatal("IPC of an empty run should be 0")
	}
}
