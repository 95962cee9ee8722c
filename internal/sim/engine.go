// Package sim provides a deterministic, single-threaded, event-driven
// simulation kernel used by every timing component of the CMP model.
//
// The scheduler is a hierarchical timing wheel specialised to the delay
// distribution of a cycle-level CMP simulation, where nearly every event
// is a small constant number of cycles away (cache latencies, MSHR retry
// back-offs, bus occupancy) and only a handful of periodic services (decay
// global ticks, the thermal power-trace sampler) live in the far future:
//
//   - a fixed-size wheel of wheelSize buckets covers the near horizon
//     [now, now+wheelSize); insertion and extraction are O(1), with an
//     occupancy bitmap so finding the next non-empty cycle is a few word
//     scans rather than a walk over empty buckets;
//   - an overflow min-heap ordered by (cycle, sequence) holds far-future
//     events; they migrate into the wheel as the clock advances and the
//     heap stays tiny (a few periodic events), so its O(log n) cost never
//     sits on the per-access path;
//   - event nodes are pooled on an intrusive free list, so steady-state
//     scheduling performs no allocations;
//   - there is one event kind: a callback taking an argument (ArgFunc) plus
//     that argument, so a node is 48 bytes and dispatch tests no kind tag.
//     A plain EventFunc rides in the argument slot of a package-level
//     trampoline (one extra call), and a Recurring is an argument event
//     that reschedules itself after its callback returns.
//
// The run loop is bucket-drain rather than per-event: each iteration
// locates the next non-empty cycle once (one occupancy-bitmap scan plus
// one far-heap horizon compare), jumps the clock over the empty range in
// a single advance, then drains the whole bucket chain inline.  Same-cycle
// appends (Schedule with delay 0) land at the bucket tail while the drain
// is walking the chain, so exact FIFO semantics are preserved — the drain
// order is event-for-event identical to a per-event Step loop
// (property-tested in drain_test.go).  The far heap's next deadline is
// cached in a single cycle value, so advancing the clock costs one compare
// and migration work is batched into the rare advances that actually
// cross the horizon.
//
// The engine maintains a global cycle counter; components schedule
// callbacks at absolute or relative cycles, and events scheduled for the
// same cycle execute in FIFO order, which makes every simulation run
// bit-for-bit reproducible for a given seed and configuration.
package sim

import (
	"container/heap"
	"fmt"
	"math/bits"
)

// Cycle is the simulation time unit.  One Cycle corresponds to one core
// clock cycle.
type Cycle uint64

// CycleMax is the largest representable cycle; it doubles as the "no
// limit" value for RunLimit.
const CycleMax = ^Cycle(0)

// EventFunc is a callback executed by the engine when its scheduled cycle
// is reached.
type EventFunc func()

// ArgFunc is a callback that receives the argument it was scheduled with.
// Pairing one pre-bound ArgFunc with a pooled per-request argument lets
// hot paths schedule completion events without allocating a closure per
// request (the argument is typically a pooled pointer, which boxes into
// the any without allocating).
type ArgFunc func(arg any)

// callEventFunc is the ArgFunc behind Schedule/ScheduleAt: a plain
// EventFunc rides in the argument slot (a func value is pointer-shaped, so
// boxing it allocates nothing), which keeps one event kind for every
// callback.
func callEventFunc(arg any) { arg.(EventFunc)() }

// event is one scheduled callback.  Nodes are pooled on an intrusive free
// list owned by the engine and linked through next while queued in a wheel
// bucket.  Every event is an ArgFunc with its argument: plain functions and
// recurring events are expressed through it, so dispatch has no kind tag.
type event struct {
	when Cycle
	seq  uint64 // far-heap tie-break: FIFO among far events at the same cycle
	next *event
	fn   ArgFunc
	arg  any
}

const (
	// wheelBits sizes the near wheel.  1024 cycles comfortably covers every
	// constant latency in the model (cache hit latencies, retry back-offs,
	// bus occupancy, the ~300-cycle memory round trip); only decay ticks and
	// thermal samples overflow to the far heap.
	wheelBits  = 10
	wheelSize  = 1 << wheelBits
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64

	// eventChunk is how many pooled event nodes are allocated at once when
	// the free list runs dry.
	eventChunk = 128
)

// bucket is one wheel slot: an intrusively linked FIFO of the events due at
// a single cycle of the near horizon.
type bucket struct{ head, tail *event }

// farHeap orders far-future events by (when, seq).
type farHeap []*event

func (h farHeap) Len() int { return len(h) }

func (h farHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}

func (h farHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *farHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *farHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// RunStatus reports why a RunLimit drain returned.
type RunStatus uint8

const (
	// RunDrained means the event queue emptied.
	RunDrained RunStatus = iota
	// RunHalted means Halt was called from inside a callback.
	RunHalted
	// RunLimited means the next pending event lies beyond the limit.
	RunLimited
)

// Engine is the simulation kernel.  It is not safe for concurrent use; the
// whole timing model runs on a single goroutine, which is both faster for
// this workload and required for determinism.
type Engine struct {
	now Cycle
	// seq tie-breaks far-heap events; it is assigned at insertion time so
	// heap order follows schedule order within a cycle.
	seq uint64

	// buckets and occ are fixed-size arrays (not slices) so indexing with a
	// wheelMask-ed value needs no bounds check in the drain loop.
	buckets    [wheelSize]bucket // bucket i holds the horizon cycle ≡ i (mod wheelSize)
	occ        [wheelWords]uint64
	wheelCount int

	far farHeap
	// farNext caches far[0].when (CycleMax when the heap is empty), so the
	// per-cycle horizon check in the drain loop is one compare; heap
	// migration is batched into the rare advances that cross it.
	farNext Cycle

	free *event
	// chunks holds every node block alloc has made, so Init can return the
	// nodes of a finished run to the free list instead of allocating anew.
	chunks [][]event

	// halted is set by Halt and consumed by the run loop after the current
	// event's callback returns.
	halted bool

	// Executed counts how many events have been dispatched; useful for
	// progress reporting and for guarding against runaway simulations.
	Executed uint64
	// FarEvents counts insertions that missed the near wheel and fell into
	// the overflow heap (including recurring refires).  Near-wheel
	// insertion is O(1) while heap insertion pays O(log n) plus heap-fixup
	// cache misses, so FarEvents/Executed is the direct measure of whether
	// wheelBits covers a model's latency distribution: a rising ratio says
	// the wheel needs another level before the heap, a near-zero one says
	// the current sizing is right.
	FarEvents uint64
	// MaxEvents, when non-zero, aborts Run with a panic after that many
	// events have executed.  It is a safety net for tests.
	MaxEvents uint64
}

// NewEngine returns an engine at cycle 0 with an empty event queue.
func NewEngine() *Engine {
	e := new(Engine)
	e.Init()
	return e
}

// Init returns e in place to the state NewEngine builds: cycle 0, an empty
// queue and zero counters.  Every event node e has allocated — queued,
// pooled or in the far heap — goes back on the free list with its callback
// dropped, so an engine rebuilt for the next simulation schedules from its
// old node blocks and far-heap array instead of allocating.  The list hands
// the nodes out in the order a new engine allocates them.
func (e *Engine) Init() {
	chunks, far := e.chunks, e.far
	clear(far)
	*e = Engine{far: far[:0], farNext: CycleMax, chunks: chunks}
	for c := len(chunks) - 1; c >= 0; c-- {
		for i := len(chunks[c]) - 1; i >= 0; i-- {
			chunks[c][i] = event{next: e.free}
			e.free = &chunks[c][i]
		}
	}
}

// Now returns the current simulation cycle.
func (e *Engine) Now() Cycle { return e.now }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.wheelCount + len(e.far) }

// alloc pops a pooled event node, refilling the free list in chunks.
func (e *Engine) alloc() *event {
	if e.free == nil {
		chunk := make([]event, eventChunk)
		for i := 0; i < eventChunk-1; i++ {
			chunk[i].next = &chunk[i+1]
		}
		e.free = &chunk[0]
		e.chunks = append(e.chunks, chunk)
	}
	ev := e.free
	e.free = ev.next
	ev.next = nil
	return ev
}

// release returns a node to the pool, dropping callback references so the
// pool does not retain closures or arguments.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	ev.arg = nil
	ev.next = e.free
	e.free = ev
}

// wheelInsert appends ev to its horizon bucket.  The caller guarantees
// ev.when-e.now < wheelSize, so each non-empty bucket holds events of
// exactly one cycle and append order is FIFO order.
func (e *Engine) wheelInsert(ev *event) {
	idx := int(ev.when) & wheelMask
	b := &e.buckets[idx]
	ev.next = nil
	if b.tail == nil {
		b.head = ev
		e.occ[idx>>6] |= 1 << (uint(idx) & 63)
	} else {
		b.tail.next = ev
	}
	b.tail = ev
	e.wheelCount++
}

// insert routes ev to the wheel or the far heap.
func (e *Engine) insert(ev *event) {
	if ev.when-e.now < wheelSize {
		e.wheelInsert(ev)
		return
	}
	e.FarEvents++
	e.seq++
	ev.seq = e.seq
	heap.Push(&e.far, ev)
	if ev.when < e.farNext {
		e.farNext = ev.when
	}
}

// migrateFar moves every far event that entered the near horizon into the
// wheel and refreshes the cached deadline.  Popping the heap in (when, seq)
// order lands one cycle's events in their bucket in schedule order, ahead
// of any events scheduled directly once the cycle is within the horizon.
func (e *Engine) migrateFar() {
	for len(e.far) > 0 && e.far[0].when-e.now < wheelSize {
		e.wheelInsert(heap.Pop(&e.far).(*event))
	}
	if len(e.far) > 0 {
		e.farNext = e.far[0].when
	} else {
		e.farNext = CycleMax
	}
}

// advanceTo moves the clock to t and migrates far events that entered the
// near horizon.  The cached farNext makes the common no-migration case one
// compare.  t never exceeds farNext (far events are always at or beyond the
// next pending cycle), so the unsigned subtraction cannot wrap.
func (e *Engine) advanceTo(t Cycle) {
	e.now = t
	if e.farNext-t < wheelSize {
		e.migrateFar()
	}
}

// scanFrom returns the index of the first non-empty bucket at or after
// start in circular order.  The caller guarantees wheelCount > 0.
func (e *Engine) scanFrom(start int) int {
	w := start >> 6
	mask := ^uint64(0) << (uint(start) & 63)
	for i := 0; i <= wheelWords; i++ {
		if word := e.occ[w&(wheelWords-1)] & mask; word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		mask = ^uint64(0)
		w++
		if w == wheelWords {
			w = 0
		}
	}
	panic("sim: occupancy bitmap inconsistent with wheelCount")
}

// nextTime returns the cycle of the earliest pending event.  Wheel events
// are always earlier than far events (the far heap only holds cycles at or
// beyond now+wheelSize), and scanning buckets circularly from now visits
// horizon cycles in increasing order.
func (e *Engine) nextTime() (Cycle, bool) {
	if e.wheelCount > 0 {
		idx := e.scanFrom(int(e.now) & wheelMask)
		return e.buckets[idx].head.when, true
	}
	if len(e.far) > 0 {
		return e.far[0].when, true
	}
	return 0, false
}

// Schedule registers fn to run delay cycles from now.  A delay of zero runs
// fn later in the current cycle, after all previously scheduled events for
// this cycle.
func (e *Engine) Schedule(delay Cycle, fn EventFunc) {
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt registers fn to run at the given absolute cycle.  Scheduling in
// the past is a programming error and panics.
func (e *Engine) ScheduleAt(when Cycle, fn EventFunc) {
	if fn == nil {
		panic("sim: ScheduleAt called with nil EventFunc")
	}
	e.ScheduleArgAt(when, callEventFunc, fn)
}

// ScheduleArg registers fn to run delay cycles from now with the given
// argument.  Hot paths pre-bind fn once and pass per-request state through
// arg (typically a pooled pointer), so scheduling allocates nothing.
func (e *Engine) ScheduleArg(delay Cycle, fn ArgFunc, arg any) {
	e.ScheduleArgAt(e.now+delay, fn, arg)
}

// ScheduleArgAt is ScheduleArg at an absolute cycle.
func (e *Engine) ScheduleArgAt(when Cycle, fn ArgFunc, arg any) {
	if fn == nil {
		panic("sim: ScheduleArgAt called with nil ArgFunc")
	}
	e.checkFuture(when)
	ev := e.alloc()
	ev.when = when
	ev.fn = fn
	ev.arg = arg
	e.insert(ev)
}

func (e *Engine) checkFuture(when Cycle) {
	if when < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: now=%d when=%d", e.now, when))
	}
}

// Halt asks the running drain loop to stop after the currently dispatching
// callback returns, leaving every remaining event queued.  Calling it
// outside a run loop makes the next Run/RunUntil/RunLimit return
// immediately.  It is the mechanism by which a simulation-level stop
// condition (all cores done) ends the run at exactly the event that
// satisfied it, even mid-bucket.
func (e *Engine) Halt() { e.halted = true }

// Step executes the next event, advancing the clock to its cycle.  It
// returns false when the queue is empty.  Locating, advancing and popping
// share one bitmap scan (RunUntil used to pay two per event); bulk
// execution should prefer Run/RunLimit, which in addition scan once per
// cycle rather than once per event.
func (e *Engine) Step() bool {
	var idx int
	if e.wheelCount > 0 {
		idx = e.scanFrom(int(e.now) & wheelMask)
		if t := e.buckets[idx].head.when; t > e.now {
			e.advanceTo(t)
		}
	} else if len(e.far) > 0 {
		// The far pop lands at the front of its bucket: every other far
		// event migrating with it is at the same or a later (cycle, seq).
		t := e.far[0].when
		e.advanceTo(t)
		idx = int(t) & wheelMask
	} else {
		return false
	}
	b := &e.buckets[idx]
	ev := b.head
	b.head = ev.next
	if b.head == nil {
		b.tail = nil
		e.occ[idx>>6] &^= 1 << (uint(idx) & 63)
	}
	e.wheelCount--
	e.Executed++
	if e.MaxEvents != 0 && e.Executed > e.MaxEvents {
		panic("sim: MaxEvents exceeded")
	}
	// The node returns to the pool before the callback runs, so a callback
	// that schedules reuses it immediately.
	fn, arg := ev.fn, ev.arg
	e.release(ev)
	fn(arg)
	return true
}

// RunLimit executes events in cycle order until the queue drains, Halt is
// called, or the next pending event lies beyond limit (pass CycleMax for
// no limit), and reports which of the three ended the run.  The clock is
// left at the last executed cycle; unlike RunUntil it does not advance to
// the limit afterwards.
//
// This is the bucket-drain hot loop: per executed cycle it pays one
// occupancy-bitmap scan, one far-horizon compare and one clock jump over
// the preceding empty range, then drains the bucket chain inline —
// re-reading the head after every dispatch, so same-cycle appends run in
// FIFO order, exactly as a per-event Step loop would execute them.
func (e *Engine) RunLimit(limit Cycle) RunStatus {
	if e.halted {
		e.halted = false
		return RunHalted
	}
	for {
		// Locate the next non-empty cycle: wheel events always precede far
		// events, so the bitmap scan wins whenever the wheel is occupied.
		var t Cycle
		if e.wheelCount > 0 {
			t = e.buckets[e.scanFrom(int(e.now)&wheelMask)].head.when
		} else if len(e.far) > 0 {
			t = e.far[0].when
		} else {
			return RunDrained
		}
		if t > limit {
			return RunLimited
		}
		if t > e.now {
			// One jump over the whole empty cycle range, one horizon check.
			e.advanceTo(t)
		}
		idx := int(t) & wheelMask
		b := &e.buckets[idx]
		for {
			ev := b.head
			if ev == nil {
				break
			}
			b.head = ev.next
			if b.head == nil {
				b.tail = nil
				e.occ[idx>>6] &^= 1 << (uint(idx) & 63)
			}
			e.wheelCount--
			e.Executed++
			if e.MaxEvents != 0 && e.Executed > e.MaxEvents {
				panic("sim: MaxEvents exceeded")
			}
			// Dispatch written out rather than called: a helper with an
			// indirect call exceeds the inlining budget.
			fn, arg := ev.fn, ev.arg
			e.release(ev)
			fn(arg)
			if e.halted {
				e.halted = false
				return RunHalted
			}
		}
	}
}

// Run executes events until the queue drains (or Halt is called).
func (e *Engine) Run() {
	e.RunLimit(CycleMax)
}

// RunUntil executes events whose cycle is <= limit.  The clock never
// advances past limit; events beyond it remain queued.  If the drain was
// halted the clock stays at the halting cycle.
func (e *Engine) RunUntil(limit Cycle) {
	if e.RunLimit(limit) != RunHalted && e.now < limit {
		e.advanceTo(limit)
	}
}

// Advance moves the clock forward by delta without executing anything.  It
// panics if events are pending before the target cycle, since skipping them
// would corrupt the timing model.
func (e *Engine) Advance(delta Cycle) {
	target := e.now + delta
	if t, ok := e.nextTime(); ok && t < target {
		panic("sim: Advance would skip pending events")
	}
	e.advanceTo(target)
}
