package core

import (
	"testing"

	"cmpleak/internal/cache"
	"cmpleak/internal/coherence"
	"cmpleak/internal/decay"
	"cmpleak/internal/mem"
	"cmpleak/internal/sim"
)

// testRig wires two leakage-aware L2 controllers (with their L1s) to one bus
// and memory, which is enough to exercise every MESI transition and the
// turn-off primitive directly, without cores or workloads.
type testRig struct {
	eng    *sim.Engine
	memory *mem.Memory
	bus    *coherence.Bus
	l1s    []*coherence.L1Controller
	l2s    []*Controller
}

func newTestRig(t *testing.T, tech decay.Spec) *testRig {
	t.Helper()
	eng := sim.NewEngine()
	memory := mem.New(eng, mem.Config{LatencyCycles: 100, BandwidthBytesPerCycle: 16, BlockSize: 64})
	bus := coherence.NewBus(eng, memory, coherence.DefaultBusConfig())
	rig := &testRig{eng: eng, memory: memory, bus: bus}
	for i := 0; i < 2; i++ {
		l1cfg := coherence.DefaultL1Config("L1-rig")
		l1, err := coherence.NewL1Controller(i, eng, l1cfg)
		if err != nil {
			t.Fatal(err)
		}
		l2, err := NewController(eng, bus, l1, ControllerConfig{
			ID: i,
			Cache: cache.Config{
				Name: "L2-rig", SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 4, LatencyCycles: 10,
			},
			MSHREntries: 16,
			Technique:   tech,
		})
		if err != nil {
			t.Fatal(err)
		}
		l1.SetLowerLevel(l2)
		tech.Start(eng, l2)
		rig.l1s = append(rig.l1s, l1)
		rig.l2s = append(rig.l2s, l2)
	}
	return rig
}

// protocol is the technique most rig tests run under.
var protocol = decay.Spec{Kind: decay.KindProtocol}

// read issues a load from core id and runs the simulation until it drains.
func (r *testRig) read(id int, a mem.Addr) {
	r.l1s[id].Read(a, nil)
	r.eng.Run()
}

// write issues a store from core id and drains the simulation.
func (r *testRig) write(id int, a mem.Addr) {
	r.l1s[id].Write(a, nil)
	r.eng.Run()
}

// l2state returns the MESI state of the block in core id's L2.
func (r *testRig) l2state(id int, a mem.Addr) coherence.State {
	set, way, hit := r.l2s[id].Array().Lookup(a)
	if !hit {
		return coherence.Invalid
	}
	return r.l2s[id].LineState(set, way)
}

func TestControllerReadMissInstallsExclusive(t *testing.T) {
	rig := newTestRig(t, protocol)
	rig.read(0, 0x1000)
	if st := rig.l2state(0, 0x1000); st != coherence.Exclusive {
		t.Fatalf("state after lone read %v, want E", st)
	}
	if rig.l2s[0].ReadMisses.Value() != 1 {
		t.Fatal("read miss not counted")
	}
	if rig.memory.Reads.Value() != 1 {
		t.Fatal("fill did not come from memory")
	}
	// The L1 must also hold the block now.
	rig.read(0, 0x1000)
	if rig.l2s[0].Reads.Value() != 1 {
		t.Fatal("second load should hit in the L1 and never reach the L2")
	}
}

func TestControllerSecondReaderGetsShared(t *testing.T) {
	rig := newTestRig(t, protocol)
	rig.read(0, 0x2000)
	rig.read(1, 0x2000)
	if st := rig.l2state(1, 0x2000); st != coherence.Shared {
		t.Fatalf("second reader state %v, want S", st)
	}
	if st := rig.l2state(0, 0x2000); st != coherence.Shared {
		t.Fatalf("first reader should be downgraded to S, got %v", st)
	}
}

func TestControllerWriteMissInstallsModified(t *testing.T) {
	rig := newTestRig(t, protocol)
	rig.write(0, 0x3000)
	if st := rig.l2state(0, 0x3000); st != coherence.Modified {
		t.Fatalf("state after write miss %v, want M", st)
	}
	if rig.l2s[0].WriteMisses.Value() != 1 {
		t.Fatal("write miss not counted")
	}
}

func TestControllerSilentExclusiveToModified(t *testing.T) {
	rig := newTestRig(t, protocol)
	rig.read(0, 0x4000)
	before := rig.bus.Transactions.Value()
	rig.write(0, 0x4000)
	if st := rig.l2state(0, 0x4000); st != coherence.Modified {
		t.Fatalf("state after E-write %v, want M", st)
	}
	// The E->M transition is silent: only the write-through store reaches
	// the L2, no new bus transaction is needed.
	if rig.bus.Transactions.Value() != before {
		t.Fatal("E->M upgrade should not use the bus")
	}
}

func TestControllerSharedWriteUsesUpgrade(t *testing.T) {
	rig := newTestRig(t, protocol)
	rig.read(0, 0x5000)
	rig.read(1, 0x5000)
	rig.write(0, 0x5000)
	if st := rig.l2state(0, 0x5000); st != coherence.Modified {
		t.Fatalf("writer state %v, want M", st)
	}
	if st := rig.l2state(1, 0x5000); st != coherence.Invalid {
		t.Fatalf("other copy state %v, want I", st)
	}
	if rig.l2s[0].Upgrades.Value() != 1 {
		t.Fatal("upgrade not counted")
	}
	if rig.l2s[1].ProtocolInvalidations.Value() != 1 {
		t.Fatal("remote copy not invalidated by protocol")
	}
	// With the Protocol technique the invalidated line must now be gated.
	if rig.l2s[1].Array().PoweredLines() != 0 {
		t.Fatal("protocol technique did not gate the invalidated line")
	}
}

func TestControllerRemoteWriteInvalidatesReaderAndL1(t *testing.T) {
	rig := newTestRig(t, protocol)
	rig.read(1, 0x6000) // core 1 holds the block in L1 and L2
	rig.write(0, 0x6000)
	if st := rig.l2state(1, 0x6000); st != coherence.Invalid {
		t.Fatalf("reader L2 state %v, want I", st)
	}
	if rig.l1s[1].BackInvalidates.Value() != 1 {
		t.Fatal("inclusion: the reader's L1 copy must be invalidated too")
	}
}

func TestControllerDirtyRemoteReadFlushes(t *testing.T) {
	rig := newTestRig(t, protocol)
	rig.write(0, 0x7000) // core 0 has the block Modified
	memWrites := rig.memory.Writes.Value()
	rig.read(1, 0x7000)
	if st := rig.l2state(0, 0x7000); st != coherence.Shared {
		t.Fatalf("owner state after remote read %v, want S", st)
	}
	if st := rig.l2state(1, 0x7000); st != coherence.Shared {
		t.Fatalf("reader state %v, want S", st)
	}
	if rig.memory.Writes.Value() <= memWrites {
		t.Fatal("MESI flush must update memory")
	}
	if rig.bus.CacheToCache.Value() == 0 {
		t.Fatal("dirty block should be supplied cache-to-cache")
	}
}

func TestControllerEvictionWritesBackAndMaintainsInclusion(t *testing.T) {
	rig := newTestRig(t, protocol)
	// The rig L2 has 64KB/64B/4-way = 256 sets; conflicting blocks are
	// 256*64 = 16KB apart.
	stride := mem.Addr(64 * 1024 / 4)
	base := mem.Addr(0x8000)
	// Load the block (so the L1 holds a copy), dirty it in the L2, then
	// evict it with four more fills in the same set.
	rig.read(0, base)
	rig.write(0, base)
	memWrites := rig.memory.Writes.Value()
	for i := 1; i <= 4; i++ {
		rig.read(0, base+mem.Addr(i)*stride)
	}
	if st := rig.l2state(0, base); st != coherence.Invalid {
		t.Fatalf("victim still present in state %v", st)
	}
	if rig.l2s[0].EvictionWritebacks.Value() == 0 {
		t.Fatal("dirty victim eviction must write back")
	}
	if rig.memory.Writes.Value() <= memWrites {
		t.Fatal("write-back did not reach memory")
	}
	if rig.l1s[0].BackInvalidates.Value() == 0 {
		t.Fatal("inclusion: L1 copy of the victim must be invalidated")
	}
}

func TestTurnOffCleanLineIsImmediate(t *testing.T) {
	rig := newTestRig(t, protocol)
	rig.read(0, 0x9000)
	set, way, _ := rig.l2s[0].Array().Lookup(0x9000)
	memWrites := rig.memory.Writes.Value()
	rig.l2s[0].RequestTurnOff(set, way)
	rig.eng.Run()
	if st := rig.l2state(0, 0x9000); st != coherence.Invalid {
		t.Fatalf("clean line not turned off: %v", st)
	}
	if rig.l2s[0].Array().Line(set, way).Powered {
		t.Fatal("turned-off line still powered")
	}
	if rig.memory.Writes.Value() != memWrites {
		t.Fatal("clean turn-off must not write back")
	}
	if rig.l2s[0].TurnOffsCompleted.Value() != 1 {
		t.Fatal("turn-off not counted")
	}
	// Paper behaviour: clean turn-off leaves the L1 copy alone.
	if rig.l1s[0].BackInvalidates.Value() != 0 {
		t.Fatal("clean turn-off should not invalidate the L1 without StrictInclusion")
	}
}

func TestTurnOffCleanLineStrictInclusion(t *testing.T) {
	rig := newTestRig(t, decay.Spec{Kind: decay.KindProtocol, StrictInclusion: true})
	rig.read(0, 0x9900)
	set, way, _ := rig.l2s[0].Array().Lookup(0x9900)
	rig.l2s[0].RequestTurnOff(set, way)
	rig.eng.Run()
	if rig.l1s[0].BackInvalidates.Value() != 1 {
		t.Fatal("strict inclusion must invalidate the L1 copy on clean turn-off")
	}
}

func TestTurnOffModifiedLineWritesBackAndInvalidatesL1(t *testing.T) {
	rig := newTestRig(t, protocol)
	rig.write(0, 0xa000)
	rig.read(0, 0xa000) // bring it into the L1 as well
	set, way, _ := rig.l2s[0].Array().Lookup(0xa000)
	if rig.l2state(0, 0xa000) != coherence.Modified {
		t.Fatal("setup: line should be Modified")
	}
	memWrites := rig.memory.Writes.Value()
	rig.l2s[0].RequestTurnOff(set, way)
	// Before the write-back completes the line sits in TD.
	if st := rig.l2s[0].LineState(set, way); st != coherence.TransientDirty {
		t.Fatalf("line should be TransientDirty during turn-off, got %v", st)
	}
	rig.eng.Run()
	if st := rig.l2state(0, 0xa000); st != coherence.Invalid {
		t.Fatalf("modified line not turned off: %v", st)
	}
	if rig.memory.Writes.Value() <= memWrites {
		t.Fatal("modified turn-off must write back to memory")
	}
	if rig.l2s[0].TurnOffWritebacks.Value() != 1 {
		t.Fatal("turn-off write-back not counted")
	}
	if rig.l1s[0].BackInvalidates.Value() == 0 {
		t.Fatal("modified turn-off must invalidate the upper level")
	}
	if rig.l2s[0].Array().Line(set, way).Powered {
		t.Fatal("line still powered after modified turn-off")
	}
}

func TestTurnOffTransientLineDefers(t *testing.T) {
	// Figure 2: a turn-off only starts from a stationary state, so a second
	// request on a line still in TD is deferred and issues nothing.
	rig := newTestRig(t, protocol)
	rig.write(0, 0xa800)
	set, way, _ := rig.l2s[0].Array().Lookup(0xa800)
	rig.l2s[0].RequestTurnOff(set, way)
	txns := rig.bus.Transactions.Value()
	rig.l2s[0].RequestTurnOff(set, way)
	c := rig.l2s[0]
	if c.TurnOffRequests.Value() != 2 || c.TurnOffDeferred.Value() != 1 {
		t.Fatalf("requests %d, deferred %d; want 2 and 1", c.TurnOffRequests.Value(), c.TurnOffDeferred.Value())
	}
	if st := c.LineState(set, way); st != coherence.TransientDirty {
		t.Fatalf("deferred request moved the line to %v, want TD", st)
	}
	if rig.bus.Transactions.Value() != txns || c.TurnOffWritebacks.Value() != 1 {
		t.Fatal("a deferred request must not issue a second write-back")
	}
	rig.eng.Run()
	if c.TurnOffsCompleted.Value() != 1 {
		t.Fatalf("%d turn-offs completed, want 1", c.TurnOffsCompleted.Value())
	}
}

func TestTurnOffDeferredWhilePendingWrite(t *testing.T) {
	// A store sitting in the L1 write buffer must defer the turn-off
	// (Table I "pending write" condition).  Use a second store behind a
	// first one so the write buffer still holds it when we ask.
	rig := newTestRig(t, protocol)
	rig.read(0, 0xb000)
	set, way, _ := rig.l2s[0].Array().Lookup(0xb000)
	// Two stores: the first occupies the drain path, the second (to our
	// block) stays pending in the buffer.
	rig.l1s[0].Write(0xb400, nil)
	rig.l1s[0].Write(0xb000, nil)
	rig.l2s[0].RequestTurnOff(set, way)
	if rig.l2s[0].TurnOffDeferred.Value() != 1 {
		t.Fatal("turn-off with a pending write must be deferred")
	}
	if !rig.l2s[0].Array().Line(set, way).Powered {
		t.Fatal("deferred turn-off must leave the line powered")
	}
	rig.eng.Run()
}

func TestTurnedOffLineCausesDecayInducedMiss(t *testing.T) {
	rig := newTestRig(t, protocol)
	rig.read(0, 0xc000)
	set, way, _ := rig.l2s[0].Array().Lookup(0xc000)
	rig.l2s[0].RequestTurnOff(set, way)
	rig.eng.Run()
	// Invalidate the L1 copy manually so the next load reaches the L2.
	rig.l1s[0].InvalidateBlock(0xc000)
	rig.read(0, 0xc000)
	if rig.l2s[0].DecayInducedMisses.Value() != 1 {
		t.Fatal("re-reference of a turned-off block must count as a decay-induced miss")
	}
	if st := rig.l2state(0, 0xc000); !st.Valid() {
		t.Fatal("block not re-installed after the decay-induced miss")
	}
}

func TestTurnOffInvalidLineIsIgnored(t *testing.T) {
	rig := newTestRig(t, protocol)
	rig.l2s[0].RequestTurnOff(0, 0)
	if rig.l2s[0].TurnOffRequests.Value() != 0 {
		t.Fatal("turn-off of an invalid line should be ignored entirely")
	}
}

func TestControllerWithBaselineKeepsLinesPowered(t *testing.T) {
	rig := newTestRig(t, decay.Spec{})
	rig.read(0, 0xd000)
	rig.write(1, 0xd000) // invalidates core 0's copy
	arr := rig.l2s[0].Array()
	if arr.PoweredLines() != arr.Config().NumLines() {
		t.Fatal("baseline must keep every line powered even after invalidations")
	}
}

func TestControllerStatsAccessors(t *testing.T) {
	rig := newTestRig(t, protocol)
	rig.read(0, 0xe000)
	rig.write(0, 0xe000)
	c := rig.l2s[0]
	if c.Accesses() != 2 {
		t.Fatalf("accesses %d, want 2", c.Accesses())
	}
	if c.Misses() != 1 {
		t.Fatalf("misses %d, want 1 (the read; the store hits the E line)", c.Misses())
	}
	if c.MissRate() != 0.5 {
		t.Fatalf("miss rate %v, want 0.5", c.MissRate())
	}
	if c.ControllerID() != 0 {
		t.Fatal("controller id wrong")
	}
}

func TestControllerInitAddsTechniquePenalty(t *testing.T) {
	// Init adds the technique's access penalty to the configured
	// ExtraLatency instead of replacing it.
	eng := sim.NewEngine()
	memory := mem.New(eng, mem.DefaultConfig())
	bus := coherence.NewBus(eng, memory, coherence.DefaultBusConfig())
	geom := cache.Config{Name: "L2", SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 4, LatencyCycles: 10, ExtraLatency: 2}
	for _, tc := range []struct {
		tech decay.Spec
		want sim.Cycle
	}{
		{decay.Spec{Kind: decay.KindProtocol}, 2},
		{decay.Spec{Kind: decay.KindDecay, DecayCycles: 1 << 16}, 3},
	} {
		c, err := NewController(eng, bus, nil, ControllerConfig{Cache: geom, MSHREntries: 16, Technique: tc.tech})
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Array().Config().ExtraLatency; got != tc.want {
			t.Errorf("%s: ExtraLatency %d, want %d", tc.tech.Name(), got, tc.want)
		}
	}
}

func TestControllerRejectsBadCacheConfig(t *testing.T) {
	eng := sim.NewEngine()
	memory := mem.New(eng, mem.DefaultConfig())
	bus := coherence.NewBus(eng, memory, coherence.DefaultBusConfig())
	if _, err := NewController(eng, bus, nil, ControllerConfig{Cache: cache.Config{}, MSHREntries: 16}); err == nil {
		t.Fatal("invalid cache geometry accepted")
	}
	geom := cache.Config{Name: "L2", SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 4, LatencyCycles: 10}
	if _, err := NewController(eng, bus, nil, ControllerConfig{Cache: geom}); err == nil {
		t.Fatal("zero MSHREntries accepted")
	}
}
