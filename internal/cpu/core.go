// Package cpu models the processing cores of the CMP.  Each core is an
// approximate out-of-order superscalar (the paper models an Alpha 21264 on
// SESC): it is trace-driven from a workload stream, retires non-memory
// instructions at the issue width, lets loads overlap up to a configurable
// memory-level-parallelism limit (the L1 MSHR depth), and posts stores
// without blocking (weak consistency through the write buffer).  The model
// is deliberately simple — the quantity the paper needs from the cores is
// the IPC degradation caused by extra L2 misses, which this captures.
//
// An L1 hit and a store the write buffer takes at once complete a fixed
// latency after issue, and their completion only lowers the core's count
// of outstanding requests.  The L1 returns such a completion as a sim.Mark
// instead of scheduling an event for it.  The core keeps the marks in
// issue order and counts one as completed once the engine says it has
// passed, which it asks only when an outstanding-request limit would
// otherwise stall the core.  When the core does stall, or its stream ends,
// the completions still ahead become events at their marks, so the core
// resumes or finishes at exactly the event it would if every completion
// were an event.
package cpu

import (
	"fmt"
	"math/bits"

	"cmpleak/internal/mem"
	"cmpleak/internal/sim"
	"cmpleak/internal/stats"
	"cmpleak/internal/workload"
)

// MemoryPort is the interface the core uses to talk to its private L1 data
// cache; it is implemented by coherence.L1Controller.  Read and Write
// either return a completion mark and true, in which case the access
// completes at the mark and done is never called, or return false and call
// done when the access completes.  The marks one method returns must come
// in schedule order (a fixed latency after issue does this).
type MemoryPort interface {
	Read(a mem.Addr, done func()) (sim.Mark, bool)
	Write(a mem.Addr, done func()) (sim.Mark, bool)
}

// Config holds the core parameters (Alpha 21264-like defaults).
type Config struct {
	// IssueWidth is the number of instructions retired per cycle when not
	// stalled on memory.
	IssueWidth int
	// MaxOutstandingLoads bounds the loads in flight (MLP).
	MaxOutstandingLoads int
	// MaxOutstandingStores bounds posted stores awaiting acceptance.
	MaxOutstandingStores int
}

// DefaultConfig returns 4-wide issue with 8 outstanding loads, matching the
// paper's out-of-order cores.
func DefaultConfig() Config {
	return Config{IssueWidth: 4, MaxOutstandingLoads: 8, MaxOutstandingStores: 8}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.IssueWidth <= 0 {
		return fmt.Errorf("cpu: IssueWidth must be positive")
	}
	if c.MaxOutstandingLoads <= 0 || c.MaxOutstandingStores <= 0 {
		return fmt.Errorf("cpu: outstanding-request limits must be positive")
	}
	return nil
}

// markRing is a FIFO of completion marks in schedule order.  Its length is
// a power of two no smaller than the outstanding-request limit, which
// bounds the marks held, so head and tail run free and index through a
// mask.
type markRing struct {
	buf        []sim.Mark
	mask       uint
	head, tail uint
}

// init sizes r for up to limit marks, reusing its buffer when it is large
// enough.
func (r *markRing) init(limit int) {
	n := 1 << bits.Len(uint(limit-1))
	buf := r.buf
	if cap(buf) < n {
		buf = make([]sim.Mark, n)
	}
	*r = markRing{buf: buf[:n], mask: uint(n - 1)}
}

func (r *markRing) push(m sim.Mark) {
	r.buf[r.tail&r.mask] = m
	r.tail++
}

// retire drops the marks that have passed and returns how many.
func (r *markRing) retire(eng *sim.Engine) int {
	n := 0
	for r.head != r.tail && eng.Passed(r.buf[r.head&r.mask]) {
		r.head++
		n++
	}
	return n
}

// schedule turns every mark still held into an event running fn at it.
// The caller retires the passed marks first.
func (r *markRing) schedule(eng *sim.Engine, fn sim.ArgFunc) {
	for ; r.head != r.tail; r.head++ {
		eng.ScheduleArgAtMark(r.buf[r.head&r.mask], fn, nil)
	}
}

// batchEntries sizes the per-core trace buffer: large enough to amortise
// the one NextBatch interface call per refill down to noise, small enough
// (6 KB) that the buffer stays hot in the L1 cache between refills.
const batchEntries = 256

// Core is one processor.
type Core struct {
	id  int
	eng *sim.Engine
	cfg Config
	l1  MemoryPort

	// The trace is consumed through a refilled batch buffer: buf[bufPos:
	// bufLen] holds entries not yet executed, and the stream is only
	// touched — one interface call — when the buffer runs dry.
	stream workload.Stream
	buf    []workload.Entry
	bufPos int
	bufLen int

	// The outstanding counts include the completions held as marks.
	outstandingLoads  int
	outstandingStores int
	loadMarks         markRing
	storeMarks        markRing
	blockedOnLoads    bool
	blockedOnStores   bool
	started           bool
	streamDone        bool
	finished          bool
	onDone            func(id int)

	// Pre-bound callbacks: the execution chain is strictly sequential, so a
	// single pending entry slot and the funcs bound at construction replace
	// the per-instruction closures on the hot path (zero allocations per
	// scheduled event).  The mark funcs are the done funcs as events placed
	// at a held completion mark.
	advanceFn      sim.EventFunc
	issuePendingFn sim.EventFunc
	loadDoneFn     func()
	storeDoneFn    func()
	loadMarkFn     sim.ArgFunc
	storeMarkFn    sim.ArgFunc
	pending        workload.Entry

	// issueShift is log2(IssueWidth) when the width is a power of two
	// (issuePow2), letting computeDelay shift instead of paying a runtime
	// integer division per trace entry — the compiler cannot strength-reduce
	// a division by a config field.
	issueShift uint
	issuePow2  bool

	startCycle  sim.Cycle
	finishCycle sim.Cycle

	// Statistics.
	Instructions stats.Counter
	LoadsIssued  stats.Counter
	StoresIssued stats.Counter
	StallCycles  stats.Counter
	lastStallAt  sim.Cycle
}

// New builds a core over the given L1 port and workload stream.
func New(id int, eng *sim.Engine, cfg Config, l1 MemoryPort, stream workload.Stream) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if l1 == nil || stream == nil {
		return nil, fmt.Errorf("cpu: L1 port and stream are required")
	}
	c := new(Core)
	c.Init(id, eng, cfg, l1, stream)
	return c, nil
}

// Init makes c in place the core New would build, not started and with
// zero statistics, keeping its batch buffer and mark rings; cfg must
// validate and l1 and stream must be non-nil.  The OnDone callback is
// cleared.
func (c *Core) Init(id int, eng *sim.Engine, cfg Config, l1 MemoryPort, stream workload.Stream) {
	buf := c.buf
	if cap(buf) < batchEntries {
		buf = make([]workload.Entry, batchEntries)
	}
	*c = Core{
		id: id, eng: eng, cfg: cfg, l1: l1,
		stream:     stream,
		buf:        buf[:batchEntries],
		loadMarks:  c.loadMarks,
		storeMarks: c.storeMarks,
	}
	c.loadMarks.init(cfg.MaxOutstandingLoads)
	c.storeMarks.init(cfg.MaxOutstandingStores)
	if w := uint(cfg.IssueWidth); w&(w-1) == 0 {
		c.issuePow2 = true
		c.issueShift = uint(bits.TrailingZeros(w))
	}
	c.advanceFn = c.advance
	c.issuePendingFn = c.issuePending
	c.loadDoneFn = func() {
		c.outstandingLoads--
		c.resumeIfBlocked()
		c.maybeFinish()
	}
	c.storeDoneFn = func() {
		c.outstandingStores--
		c.resumeIfBlocked()
		c.maybeFinish()
	}
	c.loadMarkFn = func(any) { c.loadDoneFn() }
	c.storeMarkFn = func(any) { c.storeDoneFn() }
}

// ID returns the core index.
func (c *Core) ID() int { return c.id }

// Done reports whether the stream is exhausted and all requests drained.
func (c *Core) Done() bool { return c.finished }

// OnDone registers a callback fired once when the core finishes.
func (c *Core) OnDone(fn func(id int)) { c.onDone = fn }

// Start begins execution; it may be called at any cycle and is idempotent.
func (c *Core) Start() {
	if c.started {
		return
	}
	c.started = true
	c.startCycle = c.eng.Now()
	c.eng.Schedule(0, c.advanceFn)
}

// Cycles returns the cycles the core ran for (start to finish, or to now if
// still running).
func (c *Core) Cycles() sim.Cycle {
	end := c.finishCycle
	if !c.finished {
		end = c.eng.Now()
	}
	if end < c.startCycle {
		return 0
	}
	return end - c.startCycle
}

// IPC returns retired instructions per cycle.
func (c *Core) IPC() float64 {
	return stats.RatioU(c.Instructions.Value(), uint64(c.Cycles()))
}

// computeDelay converts an instruction run into cycles at the issue width.
func (c *Core) computeDelay(instrs int) sim.Cycle {
	if instrs <= 0 {
		return 0
	}
	if c.issuePow2 {
		return sim.Cycle(uint(instrs+c.cfg.IssueWidth-1) >> c.issueShift)
	}
	return sim.Cycle((instrs + c.cfg.IssueWidth - 1) / c.cfg.IssueWidth)
}

// advance is the core's single execution chain: it consumes trace entries
// from the batch buffer until it must wait for a compute delay
// (rescheduled) or a structural limit (resumed from a completion
// callback), refilling the buffer — the only stream interface call — when
// it runs dry.  Instruction accounting stays per entry so the counter is
// exact at every cycle the power sampler reads it.  A limit check that
// would stall first retires the passed completion marks of its kind; a
// stall that remains turns the kind's other marks into events, one of
// which resumes the core.
func (c *Core) advance() {
	if c.streamDone {
		return
	}
	for {
		if c.outstandingLoads >= c.cfg.MaxOutstandingLoads {
			c.outstandingLoads -= c.loadMarks.retire(c.eng)
			if c.outstandingLoads >= c.cfg.MaxOutstandingLoads {
				c.blockedOnLoads = true
				c.lastStallAt = c.eng.Now()
				c.loadMarks.schedule(c.eng, c.loadMarkFn)
				return
			}
		}
		if c.outstandingStores >= c.cfg.MaxOutstandingStores {
			c.outstandingStores -= c.storeMarks.retire(c.eng)
			if c.outstandingStores >= c.cfg.MaxOutstandingStores {
				c.blockedOnStores = true
				c.lastStallAt = c.eng.Now()
				c.storeMarks.schedule(c.eng, c.storeMarkFn)
				return
			}
		}
		if c.bufPos >= c.bufLen {
			c.bufLen = c.stream.NextBatch(c.buf)
			c.bufPos = 0
			if c.bufLen == 0 {
				// Nothing reads an exhausted stream again; a core kept for
				// its next job (core.System.Rebuild) must not keep it, and
				// the trace behind it, alive.
				c.stream = nil
				c.finish()
				return
			}
		}
		entry := c.buf[c.bufPos]
		c.bufPos++
		c.Instructions.Add(entry.Instructions())
		delay := c.computeDelay(entry.ComputeInstrs)
		if entry.Op == workload.None {
			if delay == 0 {
				continue
			}
			c.eng.Schedule(delay, c.advanceFn)
			return
		}
		c.pending = entry
		c.eng.Schedule(delay, c.issuePendingFn)
		return
	}
}

// issuePending sends the memory operation of the pending entry to the L1
// and continues the execution chain.  Only one entry is ever pending: the
// chain does not advance past a memory entry until this runs.  A completion
// the L1 returns as a mark joins its kind's ring; the limit check that let
// this entry issue leaves the ring room for it.
func (c *Core) issuePending() {
	e := c.pending
	switch e.Op {
	case workload.Load:
		c.LoadsIssued.Inc()
		c.outstandingLoads++
		if m, ok := c.l1.Read(e.Addr, c.loadDoneFn); ok {
			c.loadMarks.push(m)
		}
	case workload.Store:
		c.StoresIssued.Inc()
		c.outstandingStores++
		if m, ok := c.l1.Write(e.Addr, c.storeDoneFn); ok {
			c.storeMarks.push(m)
		}
	}
	c.advance()
}

// resumeIfBlocked restarts the execution chain after a structural stall.
func (c *Core) resumeIfBlocked() {
	if !c.blockedOnLoads && !c.blockedOnStores {
		return
	}
	if c.blockedOnLoads && c.outstandingLoads >= c.cfg.MaxOutstandingLoads {
		return
	}
	if c.blockedOnStores && c.outstandingStores >= c.cfg.MaxOutstandingStores {
		return
	}
	c.blockedOnLoads = false
	c.blockedOnStores = false
	c.StallCycles.Add(uint64(c.eng.Now() - c.lastStallAt))
	c.advance()
}

// finish is reached when the stream is exhausted; completion is declared
// once outstanding requests drain, so every completion still held as a mark
// becomes an event.
func (c *Core) finish() {
	c.streamDone = true
	c.outstandingLoads -= c.loadMarks.retire(c.eng)
	c.outstandingStores -= c.storeMarks.retire(c.eng)
	c.loadMarks.schedule(c.eng, c.loadMarkFn)
	c.storeMarks.schedule(c.eng, c.storeMarkFn)
	c.maybeFinish()
}

// maybeFinish finalises the core once nothing is in flight.
func (c *Core) maybeFinish() {
	if !c.streamDone || c.finished {
		return
	}
	if c.outstandingLoads > 0 || c.outstandingStores > 0 {
		return
	}
	c.finished = true
	c.finishCycle = c.eng.Now()
	if c.onDone != nil {
		c.onDone(c.id)
	}
}
