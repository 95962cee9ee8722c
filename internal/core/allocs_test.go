package core

// Allocation guards for the data plane: the steady-state L1 load-hit,
// load-miss→bus→L2-fill and store→write-buffer→L2 paths must not allocate
// under any technique (decay hooks, global tick and stalled stores
// included), NewSystem must stay
// within its host-byte budget per simulated L2 line, and rebuilding a used
// System for the next job must reuse its storage.  These tests are the
// CI tripwire behind the pooled MSHR records, the pre-bound bus
// completions and the flat cache arrays; `make ci` runs them explicitly
// (test-allocs).

import (
	"runtime"
	"testing"

	"cmpleak/internal/cache"
	"cmpleak/internal/coherence"
	"cmpleak/internal/config"
	"cmpleak/internal/decay"
	"cmpleak/internal/mem"
	"cmpleak/internal/sim"
)

// allocKinds names one technique per kind, so the guards cover every
// technique's hooks and, for the decay family, its global tick.
var allocKinds = []string{"baseline", "protocol", "decay:8K", "sel_decay:8K", "adaptive:8K"}

// drainCycles bounds each guarded operation's drain.  Decay kinds keep a
// recurring tick queued, so the queue never empties and the guards advance
// the clock by a fixed window instead; one window covers a full L2 miss.
const drainCycles = 1000

// forEachKind runs fn as one subtest per technique in allocKinds.
func forEachKind(t *testing.T, fn func(t *testing.T, spec decay.Spec)) {
	for _, name := range allocKinds {
		spec, err := decay.ParseSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) { fn(t, spec) })
	}
}

// newLoadPathRig wires one L1+L2 pair to a bus and memory under the given
// technique: the minimal full-depth read path.
func newLoadPathRig(tb testing.TB, tech decay.Spec) (*sim.Engine, *coherence.L1Controller, *Controller) {
	tb.Helper()
	eng := sim.NewEngine()
	memory := mem.New(eng, mem.Config{LatencyCycles: 100, BandwidthBytesPerCycle: 16, BlockSize: 64})
	bus := coherence.NewBus(eng, memory, coherence.DefaultBusConfig())
	l1, err := coherence.NewL1Controller(0, eng, coherence.DefaultL1Config("L1-alloc"))
	if err != nil {
		tb.Fatal(err)
	}
	l2, err := NewController(eng, bus, l1, ControllerConfig{
		ID: 0,
		Cache: cache.Config{
			Name: "L2-alloc", SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 4, LatencyCycles: 10,
		},
		MSHREntries: 16,
		Technique:   tech,
	})
	if err != nil {
		tb.Fatal(err)
	}
	l1.SetLowerLevel(l2)
	tech.Start(eng, l2)
	return eng, l1, l2
}

// missStride maps every address onto set 0 of both the 32 KB L1 (8 KB span)
// and the 64 KB rig L2 (16 KB span), so a round-robin over more blocks than
// either associativity misses on every access.
const missStride = 16 * 1024

// missBlocks exceeds both associativities (4-way), so the round-robin
// stream never hits.
const missBlocks = 9

// warmOps runs enough guarded operations before measuring to span several
// decay ticks and an adaptive window, so every pool and scratch buffer has
// reached its steady-state size.
const warmOps = 64

func TestSteadyStateLoadHitAllocationFree(t *testing.T) {
	forEachKind(t, func(t *testing.T, spec decay.Spec) {
		eng, l1, l2 := newLoadPathRig(t, spec)
		const addr = mem.Addr(0x40) // set 1: disjoint from the miss stream's set 0
		hit := func() {
			l1.Read(addr, nil)
			eng.RunUntil(eng.Now() + drainCycles)
		}
		for j := 0; j < warmOps; j++ {
			hit()
		}
		if allocs := testing.AllocsPerRun(200, hit); allocs != 0 {
			t.Errorf("steady-state load hit allocates %.1f objects/op, want 0", allocs)
		}
		if l1.LoadHits.Value() == 0 || l1.LoadMisses.Value() != 1 {
			t.Fatalf("fixture broken: hits=%d misses=%d", l1.LoadHits.Value(), l1.LoadMisses.Value())
		}
		// The L1 absorbs every hit, so a decay kind's L2 copy idles and its
		// tick must have turned it off.
		if spec.Decays() != (l2.TurnOffsCompleted.Value() > 0) {
			t.Fatalf("fixture broken: %d turn-offs under %s", l2.TurnOffsCompleted.Value(), spec.Name())
		}
	})
}

func TestSteadyStateLoadMissAllocationFree(t *testing.T) {
	forEachKind(t, func(t *testing.T, spec decay.Spec) {
		eng, l1, l2 := newLoadPathRig(t, spec)
		i := 0
		miss := func() {
			l1.Read(mem.Addr(i%missBlocks)*missStride, nil)
			i++
			eng.RunUntil(eng.Now() + drainCycles)
		}
		// Warm up: populate the event, request, MSHR and bus-completion
		// pools and bring the MSHR maps to steady state.
		for j := 0; j < warmOps; j++ {
			miss()
		}
		missesBefore := l1.LoadMisses.Value()
		if allocs := testing.AllocsPerRun(200, miss); allocs != 0 {
			t.Errorf("steady-state load miss→L2 fill allocates %.1f objects/op, want 0", allocs)
		}
		if l1.LoadMisses.Value() == missesBefore {
			t.Fatal("fixture broken: the miss stream stopped missing")
		}
		if l2.ReadMisses.Value() == 0 {
			t.Fatal("fixture broken: misses never reached the L2")
		}
	})
}

// storeBurst exceeds the L1's 8 write-buffer slots, so every burst stalls
// its tail stores until drains free slots.
const storeBurst = 12

func TestSteadyStateStoreAllocationFree(t *testing.T) {
	forEachKind(t, func(t *testing.T, spec decay.Spec) {
		eng, l1, l2 := newLoadPathRig(t, spec)
		l1.Read(0x40, nil) // one block in the L1, so the burst mixes hits and misses
		eng.RunUntil(eng.Now() + drainCycles)
		burst := func() {
			for i := 0; i < storeBurst; i++ {
				l1.Write(mem.Addr(0x40+i*64), nil)
			}
			eng.RunUntil(eng.Now() + drainCycles)
		}
		for j := 0; j < warmOps; j++ {
			burst()
		}
		writes := l2.Writes.Value()
		if allocs := testing.AllocsPerRun(200, burst); allocs != 0 {
			t.Errorf("steady-state store burst allocates %.1f objects/op, want 0", allocs)
		}
		if l1.StoreHits.Value() == 0 || l1.StoreMisses.Value() == 0 || l1.RetryEvents.Value() == 0 {
			t.Fatalf("fixture broken: store hits %d, misses %d, stalls %d",
				l1.StoreHits.Value(), l1.StoreMisses.Value(), l1.RetryEvents.Value())
		}
		if l2.Writes.Value() == writes || l1.WriteBuffer().Len() != 0 {
			t.Fatalf("fixture broken: %d L2 writes, %d stores left buffered",
				l2.Writes.Value()-writes, l1.WriteBuffer().Len())
		}
	})
}

// newSystemBytesPerLine is the host-memory budget of NewSystem per simulated
// L2 line.  A 4-core 8 MB always-on system has 131 072 8-way L2 lines, each
// holding a 3-byte cache.Line and an 8-byte tag, plus 2 bytes of per-set
// valid mask and replacement state (an 8-byte valid mask and an 8-byte LRU
// permutation per 8 ways): 13 bytes.  The L1s, the workload streams, the
// thermal model and the rest of NewSystem add under one byte per L2 line
// (13.81 in all); the budget leaves room for that and no room for another
// per-line byte.
const newSystemBytesPerLine = 14

// TestNewSystemBytesPerLine guards the per-line layout of the L2 banks: the
// bytes NewSystem allocates for the 4-core 8 MB baseline, per simulated L2
// line, stay within newSystemBytesPerLine.
func TestNewSystemBytesPerLine(t *testing.T) {
	cfg := config.Default().WithTotalL2MB(8).WithTechnique(decay.Spec{Kind: decay.KindAlwaysOn})
	lines := cfg.Cores * cfg.L2.NumLines()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := NewSystem(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(s)
	perLine := float64(after.TotalAlloc-before.TotalAlloc) / float64(lines)
	if perLine > newSystemBytesPerLine {
		t.Errorf("NewSystem allocates %.1f host bytes per simulated L2 line (%d lines), budget %d",
			perLine, lines, newSystemBytesPerLine)
	}
	t.Logf("%.2f host bytes per simulated L2 line", perLine)
}

// rebuildBytesFrac bounds the bytes Rebuild may allocate, as a fraction of
// what a new build of the same System allocates: the L1 and L2 arrays, the
// event nodes, the batch buffers and the address tables are all reused, so
// what remains is per-job bookkeeping (streams, thermal model, callbacks).
const rebuildBytesFrac = 0.05

// TestRebuildBytes rebuilds a 4-core 8 MB decay:64K System that has run a
// job (so its banks also hold decay bookkeeping and its engine a node pool)
// and checks that the rebuild allocates at most rebuildBytesFrac of the
// bytes NewSystem allocates for the same configuration.
func TestRebuildBytes(t *testing.T) {
	cfg := config.Default().WithTotalL2MB(8).WithTechnique(decay.Spec{Kind: decay.KindDecay, DecayCycles: 64 * 1024})
	cfg.WorkloadScale = 0.002
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var (
		s   *System
		err error
	)
	fresh := allocated(func() { s, err = NewSystem(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	rebuild := allocated(func() { err = s.Rebuild(cfg, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if float64(rebuild) > rebuildBytesFrac*float64(fresh) {
		t.Errorf("Rebuild of a used System allocates %d bytes, over %.0f%% of a new build's %d",
			rebuild, 100*rebuildBytesFrac, fresh)
	}
	t.Logf("new build %d bytes, rebuild %d bytes (%.2f%%)", fresh, rebuild, 100*float64(rebuild)/float64(fresh))
}

// rebuildRunBytes is the heap budget of one job on a reused System: Rebuild
// of a used 4-core 8 MB decay:64K System plus its Run at workload scale
// 0.02.  Every array, pool and queue the run touches is kept by Rebuild, so
// what remains is per-job: the workload streams, the thermal model, the
// callbacks Init binds and the Result.  Measured with Go 1.24 on
// linux/amd64: 9 320 bytes in 158 allocations, the same at scale 0.05.
// Under the race detector, after the package's other tests, it read
// 10 376 bytes.  When each L1's stalled-store queue and each bank's decay
// due list still regrew per job, the same job allocated 15 912 bytes
// (18 984 at scale 0.05), and the due list alone 14 408.
const rebuildRunBytes = 12 << 10

// TestRebuildBytesWithRun runs a job on a System rebuilt from one that has
// already run the same job twice, and checks that Rebuild and Run together
// allocate at most rebuildRunBytes: the stalled-store queues, the decay due
// lists and the rest of the per-run storage regrow nothing.
func TestRebuildBytesWithRun(t *testing.T) {
	cfg := config.Default().WithTotalL2MB(8).WithTechnique(decay.Spec{Kind: decay.KindDecay, DecayCycles: 64 * 1024})
	cfg.WorkloadScale = 0.02
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job := func() {
		if err := s.Rebuild(cfg, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	job()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	job()
	runtime.ReadMemStats(&after)
	bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	if bytes > rebuildRunBytes {
		t.Errorf("Rebuild+Run of a used System allocates %d bytes, budget %d", bytes, rebuildRunBytes)
	}
	t.Logf("Rebuild+Run of a used System: %d bytes in %d allocations", bytes, mallocs)
}
