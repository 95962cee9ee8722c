package cache

import (
	"cmpleak/internal/mem"
	"cmpleak/internal/sim"
	"cmpleak/internal/stats"
)

// DoneFunc is the completion callback threaded through the memory
// hierarchy: arg is whatever request state the caller registered (typically
// a pooled record, or nil), block is the block address the completion is
// for.  Controllers pre-bind one DoneFunc per continuation kind at
// construction and pass per-request state through arg, so the steady-state
// miss path schedules completions without allocating a closure per miss.
type DoneFunc func(arg any, block mem.Addr)

// Waiter is one merged request parked on an MSHR entry, linked in merge
// order through next.  Nodes come from the MSHR's pool; after the fill
// arrives they double as the argument of the scheduled delivery event and
// return to the pool when it fires.
type Waiter struct {
	fn    DoneFunc
	arg   any
	block mem.Addr
	next  *Waiter
}

// MSHREntry tracks one outstanding miss: the block it targets and the
// merged requests waiting for the fill.  Secondary misses to the same block
// merge onto the entry instead of issuing new requests (hits under a
// pending miss, as in the paper's Figure 1).  Entries are pooled.
type MSHREntry struct {
	Block mem.Addr
	// IsWrite records whether any merged request needs write permission,
	// which the coherence layer uses to upgrade BusRd into BusRdX.
	IsWrite bool

	whead, wtail *Waiter
	nwait        int
}

// Waiters returns the number of merged requests.
func (e *MSHREntry) Waiters() int { return e.nwait }

// MSHR is a set of miss-status holding registers with request merging.
// Entry and waiter records are pooled, so a steady-state miss allocates
// nothing; the block lookup is an open-addressing addrTable rather than a
// Go map, since the handful of in-flight misses make a one-cache-line
// linear probe strictly cheaper than map machinery.
type MSHR struct {
	capacity   int
	entries    addrTable[*MSHREntry]
	entryPool  sim.Pool[MSHREntry]
	waiterPool sim.Pool[Waiter]
	// deliverFn is the pre-bound engine callback that fires one waiter.
	deliverFn sim.ArgFunc

	// Statistics.
	Allocations stats.Counter
	Merges      stats.Counter
	FullStalls  stats.Counter
}

// NewMSHR builds an MSHR with the given number of entries; capacity <= 0
// means unlimited.
func NewMSHR(capacity int) *MSHR {
	m := new(MSHR)
	m.Init(capacity)
	return m
}

// Init makes m an empty MSHR of the given capacity in place, as NewMSHR
// would build it, keeping the slots its block table has grown to and its
// record pools.
func (m *MSHR) Init(capacity int) {
	entries := m.entries
	entries.reset()
	*m = MSHR{capacity: capacity, entries: entries, entryPool: m.entryPool, waiterPool: m.waiterPool}
	m.deliverFn = m.deliver
}

// Lookup returns the entry for block, if any.
func (m *MSHR) Lookup(block mem.Addr) *MSHREntry {
	e, _ := m.entries.get(block)
	return e
}

// Full reports whether a new allocation would exceed capacity.
func (m *MSHR) Full() bool {
	return m.capacity > 0 && m.entries.len() >= m.capacity
}

// Allocate returns the entry for block, creating it when absent.  The second
// result reports whether the entry is new (a primary miss that must issue a
// request downstream).  When the MSHR is full and the block has no existing
// entry, Allocate returns (nil, false) and records a stall.
func (m *MSHR) Allocate(block mem.Addr, isWrite bool) (*MSHREntry, bool) {
	if e, ok := m.entries.get(block); ok {
		m.Merges.Inc()
		if isWrite {
			e.IsWrite = true
		}
		return e, false
	}
	if m.Full() {
		m.FullStalls.Inc()
		return nil, false
	}
	e := m.entryPool.Get()
	e.Block, e.IsWrite = block, isWrite
	m.entries.put(block, e)
	m.Allocations.Inc()
	return e, true
}

// newWaiter takes a pooled waiter node.
func (m *MSHR) newWaiter(fn DoneFunc, arg any) *Waiter {
	w := m.waiterPool.Get()
	w.fn, w.arg = fn, arg
	return w
}

// AddWaiter parks a completion on the entry.  A nil fn is ignored.
func (m *MSHR) AddWaiter(e *MSHREntry, fn DoneFunc, arg any) {
	if fn == nil {
		return
	}
	w := m.newWaiter(fn, arg)
	if e.wtail == nil {
		e.whead = w
	} else {
		e.wtail.next = w
	}
	e.wtail = w
	e.nwait++
}

// deliver fires one waiter: the node is recycled first so the callback can
// immediately reuse it (e.g. by re-missing on the same MSHR).
func (m *MSHR) deliver(a any) {
	w := a.(*Waiter)
	fn, arg, block := w.fn, w.arg, w.block
	m.waiterPool.Put(w)
	fn(arg, block)
}

// CompleteDeliver removes the entry for block and schedules every merged
// waiter to fire latency cycles from now, in merge order (FIFO).  It
// returns how many waiters were scheduled; 0 when no entry exists.
func (m *MSHR) CompleteDeliver(block mem.Addr, eng *sim.Engine, latency sim.Cycle) int {
	e, ok := m.entries.take(block)
	if !ok {
		return 0
	}
	n := e.nwait
	for w := e.whead; w != nil; {
		next := w.next
		w.block = block
		eng.ScheduleArg(latency, m.deliverFn, w)
		w = next
	}
	m.entryPool.Put(e)
	return n
}

// ScheduleDone delivers (fn, arg, block) after latency cycles through the
// same pooled records the merged waiters use — the hit-path twin of
// CompleteDeliver.  A nil fn is a no-op.
func (m *MSHR) ScheduleDone(eng *sim.Engine, latency sim.Cycle, fn DoneFunc, arg any, block mem.Addr) {
	if fn == nil {
		return
	}
	w := m.newWaiter(fn, arg)
	w.block = block
	eng.ScheduleArg(latency, m.deliverFn, w)
}

// Outstanding returns the number of in-flight misses.
func (m *MSHR) Outstanding() int { return m.entries.len() }
