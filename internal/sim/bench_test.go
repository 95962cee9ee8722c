package sim

// Scheduler microbenchmarks.  Each benchmark reports allocations so the
// timing-wheel win over the previous heap-of-closures engine is measurable:
// the heapBaseline benchmarks replicate the old kernel (container/heap of
// heap-allocated closure events) and sit next to the wheel benchmarks that
// exercise the same schedule shape.  The wheel's steady-state hot path
// (pre-bound EventFunc, pooled nodes) must stay at 0 allocs/op.

import (
	"container/heap"
	"testing"
)

// --- reference implementation: the previous heap-of-closures engine ------

type baselineEvent struct {
	when Cycle
	seq  uint64
	fn   EventFunc
}

type baselineHeap []*baselineEvent

func (h baselineHeap) Len() int { return len(h) }
func (h baselineHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h baselineHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *baselineHeap) Push(x any)   { *h = append(*h, x.(*baselineEvent)) }
func (h *baselineHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

type baselineEngine struct {
	now    Cycle
	seq    uint64
	events baselineHeap
}

func (e *baselineEngine) schedule(delay Cycle, fn EventFunc) {
	e.seq++
	heap.Push(&e.events, &baselineEvent{when: e.now + delay, seq: e.seq, fn: fn})
}

func (e *baselineEngine) step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(*baselineEvent)
	e.now = ev.when
	ev.fn()
	return true
}

// --- schedule+step: the per-hop cost of one cache-latency event ----------

// BenchmarkScheduleStep measures the steady-state schedule-one, run-one
// cycle with a pre-bound callback — the shape of every cache-latency hop.
func BenchmarkScheduleStep(b *testing.B) {
	e := NewEngine()
	var sink int
	fn := func() { sink++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(3, fn)
		e.Step()
	}
	if sink != b.N {
		b.Fatalf("ran %d events, want %d", sink, b.N)
	}
}

// BenchmarkScheduleStepHeapBaseline is the same loop on the old engine; the
// closure per schedule mirrors how every call site used it.
func BenchmarkScheduleStepHeapBaseline(b *testing.B) {
	e := &baselineEngine{}
	var sink int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.schedule(3, func() { sink++ })
		e.step()
	}
	if sink != b.N {
		b.Fatalf("ran %d events, want %d", sink, b.N)
	}
}

// BenchmarkScheduleArgStep measures the pooled-argument path used by the L1
// load pipeline and the bus completion delivery.
func BenchmarkScheduleArgStep(b *testing.B) {
	e := NewEngine()
	var sink int
	fn := ArgFunc(func(a any) { sink += a.(int) })
	b.ReportAllocs()
	b.ResetTimer()
	one := any(1) // boxed once; call sites pass pooled pointers
	for i := 0; i < b.N; i++ {
		e.ScheduleArg(2, fn, one)
		e.Step()
	}
	if sink != b.N {
		b.Fatalf("ran %d events, want %d", sink, b.N)
	}
}

// BenchmarkScheduleAtMark measures the path of a core that stalls on an
// L1 hit completion held as a mark: the mark is taken, a later event lands
// in the same cycle, and the completion is then placed ahead of it in its
// bucket (an ordered insert) before both run.
func BenchmarkScheduleAtMark(b *testing.B) {
	e := NewEngine()
	var sink int
	fn := func() { sink++ }
	afn := ArgFunc(func(any) { sink++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := e.MarkAt(2)
		e.Schedule(2, fn)
		e.ScheduleArgAtMark(m, afn, nil)
		e.Step()
		e.Step()
	}
	if sink != 2*b.N {
		b.Fatalf("ran %d events, want %d", sink, 2*b.N)
	}
}

// --- dense same-cycle bursts: snoop storms and MSHR wakeups --------------

// BenchmarkSameCycleBurst schedules 64 events on one cycle and drains them,
// the shape of an MSHR completion waking all merged waiters.
func BenchmarkSameCycleBurst(b *testing.B) {
	e := NewEngine()
	var sink int
	fn := func() { sink++ }
	const burst = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			e.Schedule(1, fn)
		}
		for j := 0; j < burst; j++ {
			e.Step()
		}
	}
	if sink != b.N*burst {
		b.Fatalf("ran %d events, want %d", sink, b.N*burst)
	}
}

func BenchmarkSameCycleBurstHeapBaseline(b *testing.B) {
	e := &baselineEngine{}
	var sink int
	const burst = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			e.schedule(1, func() { sink++ })
		}
		for j := 0; j < burst; j++ {
			e.step()
		}
	}
	if sink != b.N*burst {
		b.Fatalf("ran %d events, want %d", sink, b.N*burst)
	}
}

// --- mixed near/far delays: the full simulation delay distribution -------

// mixedDelays mirrors the model's delay distribution: mostly small constants
// (cache latencies, retry back-offs, bus phases), a ~300-cycle memory round
// trip, and rare far-future periodic work that overflows the wheel.
var mixedDelays = [16]Cycle{2, 3, 6, 2, 14, 3, 300, 2, 6, 3, 2, 306, 3, 6, 2, 130000}

// BenchmarkMixedNearFar interleaves the distribution above through the
// wheel and the overflow heap.
func BenchmarkMixedNearFar(b *testing.B) {
	e := NewEngine()
	var sink int
	fn := func() { sink++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(mixedDelays[i&15], fn)
		e.Step()
	}
	if sink != b.N {
		b.Fatalf("ran %d events, want %d", sink, b.N)
	}
}

func BenchmarkMixedNearFarHeapBaseline(b *testing.B) {
	e := &baselineEngine{}
	var sink int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.schedule(mixedDelays[i&15], func() { sink++ })
		e.step()
	}
	if sink != b.N {
		b.Fatalf("ran %d events, want %d", sink, b.N)
	}
}

// --- recurring ticks: decay global ticks and the thermal sampler ---------

// BenchmarkRecurringTick measures one firing of a recurring event (a
// pre-bound argument event that reschedules itself; the heap baseline
// re-schedules a closure per period).
func BenchmarkRecurringTick(b *testing.B) {
	e := NewEngine()
	var fired int
	e.ScheduleRecurring(5, func(Cycle) bool {
		fired++
		return true
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	if fired != b.N {
		b.Fatalf("fired %d times, want %d", fired, b.N)
	}
}

func BenchmarkRecurringTickHeapBaseline(b *testing.B) {
	e := &baselineEngine{}
	var fired int
	var fire func()
	fire = func() {
		fired++
		e.schedule(5, fire)
	}
	e.schedule(5, fire)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.step()
	}
	if fired != b.N {
		b.Fatalf("fired %d times, want %d", fired, b.N)
	}
}

// BenchmarkFarRecurringTick keeps the period beyond the wheel horizon, so
// every refire crosses the overflow heap (the decay-tick shape at full
// paper decay intervals).
func BenchmarkFarRecurringTick(b *testing.B) {
	e := NewEngine()
	var fired int
	e.ScheduleRecurring(128*1024, func(Cycle) bool {
		fired++
		return true
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	if fired != b.N {
		b.Fatalf("fired %d times, want %d", fired, b.N)
	}
}

// --- drain-loop benchmarks: the Run/RunLimit bucket-drain hot path --------
//
// These measure the run loop itself rather than Step: self-feeding chains of
// pre-bound argument events reschedule themselves until b.N dispatches have
// happened, then halt the loop, so the engine pays exactly the per-cycle
// scan/advance plus per-event drain cost under three bucket shapes.

// drainChain carries one self-feeding chain's state through the any argument
// without boxing per event.
type drainChain struct {
	e     *Engine
	delay Cycle
	fired *int
	limit int
}

// benchDrain runs `chains` parallel self-feeding chains at the given delay
// until b.N total events have dispatched.
func benchDrain(b *testing.B, chains int, delay Cycle) {
	e := NewEngine()
	var fired int
	var fn ArgFunc
	fn = func(a any) {
		c := a.(*drainChain)
		*c.fired++
		if *c.fired >= c.limit {
			c.e.Halt()
			return
		}
		c.e.ScheduleArg(c.delay, fn, a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < chains; i++ {
		e.ScheduleArg(delay+Cycle(i&3), fn, &drainChain{e: e, delay: delay, fired: &fired, limit: b.N})
	}
	for e.RunLimit(CycleMax) == RunHalted && fired < b.N {
	}
	if fired < b.N {
		b.Fatalf("ran %d events, want at least %d", fired, b.N)
	}
}

// BenchmarkDrainDenseBucket keeps 64 chains landing on a handful of adjacent
// cycles, so each drained bucket holds a long same-cycle chain and the
// per-cycle scan cost amortises across many dispatches — the snoop-storm /
// MSHR-wakeup shape.
func BenchmarkDrainDenseBucket(b *testing.B) { benchDrain(b, 64, 1) }

// BenchmarkDrainSparseBucket runs a single chain with a delay most of the
// way around the wheel, so nearly every iteration is one bitmap scan plus
// one clock jump over ~800 empty cycles — the empty-range fast-forward path.
func BenchmarkDrainSparseBucket(b *testing.B) { benchDrain(b, 1, 800) }

// BenchmarkDrainFarHeavy pushes every reschedule beyond the wheel horizon,
// so each event pays the overflow-heap insert, the cached-horizon check and
// the batched migration back into the wheel.
func BenchmarkDrainFarHeavy(b *testing.B) { benchDrain(b, 4, 4*wheelSize) }

// --- 0 allocs/op guards (`make test-allocs`) ------------------------------

// TestDrainLoopAllocationFree guards the bucket-drain run loop: a mixed
// near/zero/far schedule of pre-bound argument events, plain functions,
// events placed at marks and a recurring tick must drain with zero
// allocations once the node pool and the far heap are warm.
func TestDrainLoopAllocationFree(t *testing.T) {
	e := NewEngine()
	var fired int
	afn := ArgFunc(func(any) { fired++ })
	fn := func() { fired++ }
	rec := e.ScheduleRecurring(wheelSize*2, func(Cycle) bool {
		fired++
		return true
	})
	defer rec.Stop()
	arg := any(1) // boxed once, as call sites pass pooled pointers
	round := func() {
		for i := Cycle(0); i < 8; i++ {
			m := e.MarkAt(i & 3)
			e.ScheduleArg(i&3, afn, arg)
			e.Schedule(i&3, fn)
			e.ScheduleArgAtMark(m, afn, arg)
		}
		e.ScheduleArg(3*wheelSize, afn, arg) // far insert + later migration
		e.RunUntil(e.Now() + 4*wheelSize)
	}
	round() // warm the pool, the far heap's backing array and the recurring node
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("drain loop allocates %.1f times per round, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("no events fired")
	}
}

// TestMonomorphicDispatchAllocationFree guards the engine's argument
// dispatch path in isolation: every event is a pre-bound ArgFunc with its
// argument, and a self-feeding chain of them must run allocation-free
// through Run, including the Halt that ends each burst.
func TestMonomorphicDispatchAllocationFree(t *testing.T) {
	e := NewEngine()
	var fired int
	var fn ArgFunc
	fn = func(a any) {
		fired++
		if fired%64 == 0 {
			e.Halt()
			return
		}
		e.ScheduleArg(2, fn, a)
	}
	c := &drainChain{}
	e.ScheduleArg(2, fn, c)
	e.Run() // warm: first 64 dispatches grow the pool
	round := func() {
		e.ScheduleArg(2, fn, c)
		e.Run()
	}
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("monomorphic dispatch allocates %.1f times per burst, want 0", allocs)
	}
}

// --- random samplers ------------------------------------------------------

// BenchmarkGeometric measures one precomputed geometric draw at the mean
// compute run of the scientific benchmarks' phases, the largest single cost
// of live workload generation.
func BenchmarkGeometric(b *testing.B) {
	g := NewGeom(12.6)
	r := NewRand(1)
	sum := 0
	for b.Loop() {
		sum += g.Sample(r)
	}
	geomSink = sum
}

var geomSink int

// TestInitAllocationFree guards the engine's reuse across simulations: an
// engine rebuilt with Init schedules from the node blocks and far-heap array
// of its earlier run, so a run no larger than that one allocates nothing.
func TestInitAllocationFree(t *testing.T) {
	e := NewEngine()
	fn := ArgFunc(func(any) {})
	arg := any(1)
	round := func() {
		e.Init()
		for i := Cycle(0); i < 4*eventChunk; i++ {
			e.ScheduleArg(i&7, fn, arg)
			e.ScheduleArg(2*wheelSize+i, fn, arg)
		}
	}
	round() // the first run allocates the node blocks and the far heap
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("Init and a same-sized schedule allocate %.1f times, want 0", allocs)
	}
}
