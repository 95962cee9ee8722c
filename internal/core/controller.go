// Package core implements the paper's contribution: the coherence-safe
// mechanism to turn off L2 cache lines in a CMP (Section III, Figure 2 and
// Table I) and the leakage-aware private-L2 controller and CMP system that
// the three techniques of Section IV run on.
package core

import (
	"cmpleak/internal/cache"
	"cmpleak/internal/coherence"
	"cmpleak/internal/decay"
	"cmpleak/internal/mem"
	"cmpleak/internal/sim"
	"cmpleak/internal/stats"
)

// retryCycles is the back-off of a miss that found the MSHR full.
const retryCycles sim.Cycle = 4

// ControllerConfig parameterises one leakage-aware private L2 controller.
type ControllerConfig struct {
	// ID is the core index this L2 belongs to.
	ID int
	// Cache is the L2 array geometry.  Init adds the technique's access
	// penalty to its ExtraLatency.
	Cache cache.Config
	// MSHREntries bounds outstanding misses (0 = unlimited).
	MSHREntries int
	// Technique is the leakage technique observing this controller; the
	// zero Spec is the always-on baseline.
	Technique decay.Spec
}

// Controller is the leakage-aware, coherent, private L2 cache controller —
// the paper's architectural contribution.  It implements:
//
//   - coherence.LowerLevel: the processor side (PrRd/PrWr from the L1),
//   - coherence.Snooper: the bus side of the MESI protocol,
//   - decay.Controller: the turn-off primitive offered to the techniques,
//     following the modified FSM of Figure 2 (the TD transient state,
//     upper-level invalidation and write-back for Modified lines).
type Controller struct {
	cfg  ControllerConfig
	eng  *sim.Engine
	arr  *cache.Cache
	mshr *cache.MSHR
	bus  *coherence.Bus
	l1   *coherence.L1Controller

	// decayedBlocks remembers blocks removed by a decay turn-off so that a
	// subsequent miss to them can be attributed to the technique; it is a
	// compact open-addressing probe table (cache.AddrSet, shared with the
	// write buffer's coalesce check) because it sits on the miss path.
	decayedBlocks cache.AddrSet

	// retries pools MSHR-full retry records so back-offs schedule a
	// pre-bound pooled event instead of a fresh closure per retry; upgrades
	// pools the continuations of BusUpgr transactions the same way.
	retries  sim.Pool[missRetry]
	upgrades sim.Pool[upgradeReq]
	retryFn  sim.ArgFunc
	// Pre-bound bus completions: the bus hands the transaction back, so the
	// fill and turn-off write-back continuations recover the block from
	// txn.Block instead of capturing it in a per-miss closure.
	fillFn      coherence.ResultFunc
	upgradeFn   coherence.ResultFunc
	turnOffWBFn coherence.ResultFunc

	// Statistics.
	Reads                  stats.Counter
	Writes                 stats.Counter
	ReadMisses             stats.Counter
	WriteMisses            stats.Counter
	Upgrades               stats.Counter
	ProtocolInvalidations  stats.Counter
	Evictions              stats.Counter
	EvictionWritebacks     stats.Counter
	TurnOffRequests        stats.Counter
	TurnOffsCompleted      stats.Counter
	TurnOffWritebacks      stats.Counter
	TurnOffL1Invalidations stats.Counter
	TurnOffDeferred        stats.Counter
	DecayInducedMisses     stats.Counter
	RetryEvents            stats.Counter
}

// NewController builds the controller below l1 and attaches it to bus.
// The caller still points l1 at it (coherence.L1Controller.SetLowerLevel).
func NewController(eng *sim.Engine, bus *coherence.Bus, l1 *coherence.L1Controller, cfg ControllerConfig) (*Controller, error) {
	c := new(Controller)
	if err := c.Init(eng, bus, l1, cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// Init makes c in place the controller NewController would build.  The L2
// array's ExtraLatency gains the technique's access penalty.  The array,
// MSHR and decayed-block set are rebuilt in their own storage
// (cache.Cache.Init and the others) and the record pools are kept, so a
// bank of the size c held before allocates nothing.
func (c *Controller) Init(eng *sim.Engine, bus *coherence.Bus, l1 *coherence.L1Controller, cfg ControllerConfig) error {
	cfg.Cache.ExtraLatency += cfg.Technique.ExtraAccessLatency()
	arr, mshr := c.arr, c.mshr
	if arr == nil {
		arr, mshr = new(cache.Cache), new(cache.MSHR)
	}
	if err := arr.Init(cfg.Cache); err != nil {
		return err
	}
	mshr.Init(cfg.MSHREntries)
	decayed := c.decayedBlocks
	decayed.Init()
	*c = Controller{
		cfg:           cfg,
		eng:           eng,
		arr:           arr,
		mshr:          mshr,
		bus:           bus,
		l1:            l1,
		decayedBlocks: decayed,
		retries:       c.retries,
		upgrades:      c.upgrades,
	}
	c.retryFn = c.retryMiss
	c.fillFn = func(_ any, txn coherence.Transaction, res coherence.BusResult) {
		c.fill(txn.Block, res)
	}
	c.upgradeFn = c.finishUpgrade
	c.turnOffWBFn = c.finishTurnOffWriteBack
	bus.Attach(c)
	return nil
}

// missRetry carries a deferred requestMiss through its back-off; records
// come from the controller's pool.
type missRetry struct {
	block   mem.Addr
	isWrite bool
	done    cache.DoneFunc
	arg     any
}

// retryMiss re-attempts a miss after an MSHR-full back-off.
func (c *Controller) retryMiss(a any) {
	r := a.(*missRetry)
	block, isWrite, done, arg := r.block, r.isWrite, r.done, r.arg
	c.retries.Put(r)
	c.requestMiss(block, isWrite, done, arg)
}

// upgradeReq carries a BusUpgr continuation (the requester's completion)
// through the bus round trip; records come from the controller's pool.
type upgradeReq struct {
	done cache.DoneFunc
	arg  any
}

// ControllerID implements coherence.Snooper.
func (c *Controller) ControllerID() int { return c.cfg.ID }

// Array implements decay.Controller.
func (c *Controller) Array() *cache.Cache { return c.arr }

// Now implements decay.Controller.
func (c *Controller) Now() sim.Cycle { return c.eng.Now() }

// LineState implements decay.Controller.
func (c *Controller) LineState(set, way int) coherence.State {
	if !c.arr.Valid(set, way) {
		return coherence.Invalid
	}
	return coherence.State(c.arr.Line(set, way).State)
}

// setState records a coherence state change and fires the technique hook for
// stationary-to-stationary transitions.
func (c *Controller) setState(set, way int, newState coherence.State) {
	ln := c.arr.Line(set, way)
	old := coherence.State(ln.State)
	ln.State = uint8(newState)
	if old != newState && newState.Stable() && newState != coherence.Invalid {
		c.cfg.Technique.OnStateChange(c, set, way, newState)
	}
}

// block returns the block-aligned address.
func (c *Controller) block(a mem.Addr) mem.Addr {
	return mem.BlockAddr(a, c.cfg.Cache.LineBytes)
}

// Accesses returns all processor-side accesses serviced.
func (c *Controller) Accesses() uint64 { return c.Reads.Value() + c.Writes.Value() }

// Misses returns all processor-side misses; it implements decay.Controller.
func (c *Controller) Misses() uint64 { return c.ReadMisses.Value() + c.WriteMisses.Value() }

// MissRate returns the processor-side miss rate.
func (c *Controller) MissRate() float64 { return stats.RatioU(c.Misses(), c.Accesses()) }

// ---------------------------------------------------------------------------
// Processor side (coherence.LowerLevel)
// ---------------------------------------------------------------------------

// Read services a PrRd from the L1 (load miss in the upper level).
func (c *Controller) Read(block mem.Addr, done cache.DoneFunc, arg any) {
	c.Reads.Inc()
	set, way, hit := c.arr.Lookup(block)
	if hit && c.LineState(set, way).Valid() {
		c.arr.Touch(set, way)
		c.cfg.Technique.OnHit(c, set, way)
		c.mshr.ScheduleDone(c.eng, c.cfg.Cache.Latency(), done, arg, block)
		return
	}
	c.ReadMisses.Inc()
	c.noteDecayInducedMiss(block)
	c.requestMiss(block, false, done, arg)
}

// Write services a PrWr: a write-through store arriving from the L1 write
// buffer.  The L2 allocates on write misses (it is the point of coherence).
func (c *Controller) Write(block mem.Addr, done cache.DoneFunc, arg any) {
	c.Writes.Inc()
	set, way, hit := c.arr.Lookup(block)
	if hit {
		st := c.LineState(set, way)
		switch st {
		case coherence.Modified:
			c.writeHit(block, set, way, done, arg)
			return
		case coherence.Exclusive:
			// Silent E -> M upgrade.
			c.setState(set, way, coherence.Modified)
			c.writeHit(block, set, way, done, arg)
			return
		case coherence.Shared:
			// Upgrade: invalidate other copies, no data transfer.  The
			// continuation rides a pooled record; the block comes back with
			// the transaction.
			c.Upgrades.Inc()
			c.arr.Touch(set, way)
			u := c.upgrades.Get()
			u.done, u.arg = done, arg
			txn := coherence.Transaction{Kind: coherence.BusUpgr, Block: block, Requester: c.cfg.ID}
			c.bus.Issue(txn, c.upgradeFn, u)
			return
		default:
			// Transient (being turned off): treat as a miss; the fill will
			// re-install the block once the turn-off completes.
		}
	}
	c.WriteMisses.Inc()
	c.noteDecayInducedMiss(block)
	c.requestMiss(block, true, done, arg)
}

// finishUpgrade completes a BusUpgr once the bus accepted it.
func (c *Controller) finishUpgrade(a any, txn coherence.Transaction, _ coherence.BusResult) {
	u := a.(*upgradeReq)
	done, arg := u.done, u.arg
	c.upgrades.Put(u)
	block := txn.Block
	s2, w2, still := c.arr.Lookup(block)
	if still && c.LineState(s2, w2) == coherence.Shared {
		c.setState(s2, w2, coherence.Modified)
		c.cfg.Technique.OnHit(c, s2, w2)
		c.mshr.ScheduleDone(c.eng, c.cfg.Cache.Latency(), done, arg, block)
		return
	}
	// Lost the line to a racing invalidation or turn-off: fall back to a
	// full write miss.
	c.WriteMisses.Inc()
	c.requestMiss(block, true, done, arg)
}

// writeHit finishes a write hit on a Modified line, delivering the caller's
// requested block (like every other completion path).
func (c *Controller) writeHit(block mem.Addr, set, way int, done cache.DoneFunc, arg any) {
	c.arr.Touch(set, way)
	c.cfg.Technique.OnHit(c, set, way)
	c.mshr.ScheduleDone(c.eng, c.cfg.Cache.Latency(), done, arg, block)
}

// noteDecayInducedMiss attributes a miss to a previous decay turn-off.
func (c *Controller) noteDecayInducedMiss(block mem.Addr) {
	if c.decayedBlocks.Take(block) {
		c.DecayInducedMisses.Inc()
	}
}

// requestMiss allocates an MSHR entry (retrying while full) and issues the
// bus transaction for primary misses.  The fill continuation is the
// controller's single pre-bound fillFn: the block travels in the
// transaction, so no per-miss closure exists.
func (c *Controller) requestMiss(block mem.Addr, isWrite bool, done cache.DoneFunc, arg any) {
	entry, isNew := c.mshr.Allocate(block, isWrite)
	if entry == nil {
		c.RetryEvents.Inc()
		r := c.retries.Get()
		r.block, r.isWrite, r.done, r.arg = block, isWrite, done, arg
		c.eng.ScheduleArg(retryCycles, c.retryFn, r)
		return
	}
	c.mshr.AddWaiter(entry, done, arg)
	if !isNew {
		return
	}
	kind := coherence.BusRd
	if isWrite {
		kind = coherence.BusRdX
	}
	txn := coherence.Transaction{Kind: kind, Block: block, Requester: c.cfg.ID}
	c.bus.Issue(txn, c.fillFn, nil)
}

// fill installs a block returned by the bus and wakes the merged requests.
func (c *Controller) fill(block mem.Addr, res coherence.BusResult) {
	now := c.eng.Now()
	entry := c.mshr.Lookup(block)
	wantWrite := entry != nil && entry.IsWrite

	set, way, hit := c.arr.Lookup(block)
	if !hit {
		way = c.arr.Victim(set)
		c.evictForFill(set, way)
		c.arr.Install(block, set, way)
		c.arr.PowerOn(set, way, now)
	} else {
		c.arr.Touch(set, way)
	}
	var st coherence.State
	switch {
	case wantWrite:
		st = coherence.Modified
	case res.Snoop.Shared:
		st = coherence.Shared
	default:
		st = coherence.Exclusive
	}
	c.setStateRaw(set, way, st)
	c.cfg.Technique.OnStateChange(c, set, way, st)
	c.mshr.CompleteDeliver(block, c.eng, c.cfg.Cache.Latency())
}

// evictForFill clears the victim way, writing back dirty data and preserving
// inclusion by invalidating the L1 copy.
func (c *Controller) evictForFill(set, way int) {
	if !c.arr.Valid(set, way) {
		return
	}
	victimBlock := c.arr.Tag(set, way)
	c.Evictions.Inc()
	if coherence.State(c.arr.Line(set, way).State).Dirty() {
		c.EvictionWritebacks.Inc()
		txn := coherence.Transaction{Kind: coherence.WriteBack, Block: victimBlock, Requester: c.cfg.ID}
		c.bus.Issue(txn, nil, nil)
	}
	c.l1.InvalidateBlock(victimBlock)
	c.arr.Invalidate(set, way)
	// The way is reused immediately by the incoming fill, so the line is
	// not gated here; the technique only observes true protocol
	// invalidations and decay turn-offs.
}

// ---------------------------------------------------------------------------
// Bus side (coherence.Snooper)
// ---------------------------------------------------------------------------

// Snoop implements the remote side of the MESI protocol for this cache.
func (c *Controller) Snoop(txn coherence.Transaction) coherence.SnoopResponse {
	switch txn.Kind {
	case coherence.WriteBack:
		return coherence.SnoopResponse{}
	}
	set, way, hit := c.arr.Lookup(txn.Block)
	if !hit || !c.LineState(set, way).Valid() {
		// A pending fill counts as a (future) sharer so two simultaneous
		// readers do not both believe they are exclusive.
		if c.mshr.Lookup(txn.Block) != nil && txn.Kind == coherence.BusRd {
			return coherence.SnoopResponse{Shared: true}
		}
		return coherence.SnoopResponse{}
	}
	st := c.LineState(set, way)
	switch txn.Kind {
	case coherence.BusRd:
		switch st {
		case coherence.Modified, coherence.TransientDirty:
			// Flush: supply the data, memory is updated, downgrade to S.
			c.setState(set, way, coherence.Shared)
			return coherence.SnoopResponse{Shared: true, Dirty: true}
		case coherence.Exclusive:
			c.setState(set, way, coherence.Shared)
			return coherence.SnoopResponse{Shared: true}
		default:
			return coherence.SnoopResponse{Shared: true}
		}
	case coherence.BusRdX, coherence.BusUpgr:
		dirty := st.Dirty()
		c.invalidateByProtocol(set, way)
		return coherence.SnoopResponse{Shared: false, Dirty: dirty}
	}
	return coherence.SnoopResponse{}
}

// invalidateByProtocol performs a protocol invalidation: the L1 copy is
// removed (inclusion), the line goes to Invalid, and the technique is told
// (the Protocol technique gates the line here).
func (c *Controller) invalidateByProtocol(set, way int) {
	block := c.arr.Tag(set, way)
	c.ProtocolInvalidations.Inc()
	c.l1.InvalidateBlock(block)
	c.arr.Invalidate(set, way)
	c.setStateRaw(set, way, coherence.Invalid)
	c.cfg.Technique.OnProtocolInvalidate(c, set, way)
}

// ---------------------------------------------------------------------------
// Turn-off primitive (decay.Controller)
// ---------------------------------------------------------------------------

// RequestTurnOff implements the Figure 2 turn-off protocol for the line at
// (set, way), as Table I decides it for a CMP with private L2s and
// write-through L1s:
//
//   - Modified: the L1 copy is invalidated (inclusion) and the line enters
//     TD while its block is written back; the write-back's completion
//     gates it.
//   - Shared or Exclusive with no store to the block pending in the L1
//     write buffer: the line is gated at once.  Under StrictInclusion the
//     L1 copy is invalidated first.
//   - Anything else (a pending store, or TD already) defers the request.
func (c *Controller) RequestTurnOff(set, way int) {
	if !c.arr.Valid(set, way) || !c.arr.Line(set, way).Powered {
		return
	}
	c.TurnOffRequests.Inc()
	block := c.arr.Tag(set, way)
	switch st := c.LineState(set, way); {
	case st == coherence.Modified:
		// Figure 2: M --Turn-off--> TD --(write-back done)--> I.
		c.invalidateL1ForTurnOff(block)
		c.setStateRaw(set, way, coherence.TransientDirty)
		c.TurnOffWritebacks.Inc()
		txn := coherence.Transaction{Kind: coherence.WriteBack, Block: block, Requester: c.cfg.ID}
		c.bus.Issue(txn, c.turnOffWBFn, nil)
	case (st == coherence.Shared || st == coherence.Exclusive) && !c.l1.HasPendingWrite(block):
		if c.cfg.Technique.StrictInclusion {
			c.invalidateL1ForTurnOff(block)
		}
		c.completeTurnOff(set, way, block)
	default:
		c.TurnOffDeferred.Inc()
	}
}

// invalidateL1ForTurnOff removes the L1 copy of a block being turned off.
func (c *Controller) invalidateL1ForTurnOff(block mem.Addr) {
	if c.l1.InvalidateBlock(block) {
		c.TurnOffL1Invalidations.Inc()
	}
}

// finishTurnOffWriteBack gates a TransientDirty line once its write-back
// completed (pre-bound; the block comes back with the transaction).
func (c *Controller) finishTurnOffWriteBack(_ any, txn coherence.Transaction, _ coherence.BusResult) {
	block := txn.Block
	s2, w2, still := c.arr.Lookup(block)
	if !still || c.LineState(s2, w2) != coherence.TransientDirty {
		// The line was re-fetched or invalidated while the write-back was
		// in flight; nothing left to gate.
		return
	}
	c.completeTurnOff(s2, w2, block)
}

// setStateRaw changes the state without firing the stationary-transition
// hook (used for transient states).
func (c *Controller) setStateRaw(set, way int, st coherence.State) {
	c.arr.Line(set, way).State = uint8(st)
}

// completeTurnOff gates the line: it reaches Invalid and is disconnected
// from the supply rail, exactly as the valid-bit gating of the paper.
func (c *Controller) completeTurnOff(set, way int, block mem.Addr) {
	c.arr.Invalidate(set, way)
	c.setStateRaw(set, way, coherence.Invalid)
	c.arr.PowerOff(set, way, c.eng.Now())
	c.TurnOffsCompleted.Inc()
	c.decayedBlocks.Add(block)
}
