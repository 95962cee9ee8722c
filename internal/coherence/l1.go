package coherence

import (
	"fmt"

	"cmpleak/internal/cache"
	"cmpleak/internal/mem"
	"cmpleak/internal/sim"
	"cmpleak/internal/stats"
)

// LowerLevel is the processor-side interface the private L2 controller
// exposes to its L1 (PrRd / PrWr in the Figure 2 edge labels).  Completions
// use the pre-bound (done, arg) convention of cache.DoneFunc: the L2 hands
// arg back verbatim along with the block serviced, so neither side builds a
// closure per request.
type LowerLevel interface {
	// Read requests the block on behalf of an L1 load miss.
	Read(block mem.Addr, done cache.DoneFunc, arg any)
	// Write propagates a write-through store to the L2.
	Write(block mem.Addr, done cache.DoneFunc, arg any)
}

// L1Config parameterises one private L1 data cache.
type L1Config struct {
	Cache cache.Config
	// MSHREntries and WriteBufferSlots bound the outstanding load misses
	// and the buffered stores; each must be at least 1.
	MSHREntries      int
	WriteBufferSlots int
	// RetryCycles is the back-off used when the MSHR or write buffer is
	// full; it must be positive.
	RetryCycles sim.Cycle
	// DrainGapCycles separates consecutive write-buffer drains toward L2;
	// it must be positive.
	DrainGapCycles sim.Cycle
}

// Validate checks the cache geometry and that the MSHR, the write buffer
// and both back-offs are non-zero: with no MSHR entry or write-buffer slot
// a miss or store would wait forever, and a zero back-off would re-poll a
// full MSHR or write buffer within the same cycle without end.
func (c L1Config) Validate() error {
	if err := c.Cache.Validate(); err != nil {
		return err
	}
	if c.MSHREntries < 1 {
		return fmt.Errorf("coherence: %s: MSHREntries must be at least 1", c.Cache.Name)
	}
	if c.WriteBufferSlots < 1 {
		return fmt.Errorf("coherence: %s: WriteBufferSlots must be at least 1", c.Cache.Name)
	}
	if c.RetryCycles == 0 {
		return fmt.Errorf("coherence: %s: RetryCycles must be positive", c.Cache.Name)
	}
	if c.DrainGapCycles == 0 {
		return fmt.Errorf("coherence: %s: DrainGapCycles must be positive", c.Cache.Name)
	}
	return nil
}

// DefaultL1Config returns a 32 KB, 4-way, write-through L1 with an 8-entry
// MSHR and an 8-entry write buffer, matching the paper's system sketch.
func DefaultL1Config(name string) L1Config {
	return L1Config{
		Cache: cache.Config{
			Name:          name,
			SizeBytes:     32 * 1024,
			LineBytes:     64,
			Assoc:         4,
			LatencyCycles: 2,
		},
		MSHREntries:      8,
		WriteBufferSlots: 8,
		RetryCycles:      4,
		DrainGapCycles:   1,
	}
}

// L1Controller models a private, write-through, no-write-allocate L1 data
// cache with a write buffer and an MSHR, as sketched in Figure 1 of the
// paper.  Because the L1 is write-through, every line it holds is clean and
// the inclusion property with the L2 is maintained by back-invalidation.
type L1Controller struct {
	id    int
	eng   *sim.Engine
	cfg   L1Config
	cache *cache.Tags
	mshr  *cache.MSHR
	wb    *cache.WriteBuffer
	below LowerLevel

	// lastHit is the block of the last access that hit, or noHit.  It is
	// the most recently touched line of the whole L1, so the most recently
	// used way of its set, and a repeat access to it hits without Lookup or
	// Touch.  fill and InvalidateBlock, the only other writers of the tag
	// store, reset it.
	lastHit mem.Addr

	draining bool
	// stalledStores queues stores that found the write buffer full; they
	// are admitted in FIFO order as drains free slots (no polling).  A
	// stalled store has not been accepted, so it still counts toward its
	// core's MaxOutstandingStores, which bounds the queue.
	stalledStores []pendingStore

	// reqs pools per-miss request records; together with the pre-bound
	// callbacks below they keep the whole load path — hit, miss, MSHR merge
	// and L2 fill — free of per-event allocations.
	reqs           sim.Pool[loadReq]
	retryFillFn    sim.ArgFunc
	finishLoadDone cache.DoneFunc
	fillDone       cache.DoneFunc
	drainDoneFn    cache.DoneFunc
	startDrainFn   sim.EventFunc

	// Statistics.
	Loads           stats.Counter
	Stores          stats.Counter
	LoadHits        stats.Counter
	LoadMisses      stats.Counter
	StoreHits       stats.Counter
	StoreMisses     stats.Counter
	BackInvalidates stats.Counter
	RetryEvents     stats.Counter
	// LoadLatency and StoreAcceptDelay observe integer cycle deltas once
	// per completed access; they use the integer CycleAcc so the hot path
	// does no float arithmetic (moments are computed at report time and are
	// bit-identical to the float64 accumulation they replaced).
	LoadLatency      stats.CycleAcc
	StoreAcceptDelay stats.CycleAcc
}

// NewL1Controller builds an L1 controller; below may be set later with
// SetLowerLevel (the system wires L1 and L2 together after both exist).
func NewL1Controller(id int, eng *sim.Engine, cfg L1Config) (*L1Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := new(L1Controller)
	l.Init(id, eng, cfg)
	return l, nil
}

// Init makes l in place the controller NewL1Controller would build, with no
// lower level and zero statistics; cfg must validate.  Its tag store, MSHR
// and write buffer are rebuilt in their own storage (cache.Tags.Init and
// the others), and it keeps its request pool and its stalled-store queue's
// array.
func (l *L1Controller) Init(id int, eng *sim.Engine, cfg L1Config) {
	arr, mshr, wb := l.cache, l.mshr, l.wb
	if arr == nil {
		arr, mshr, wb = new(cache.Tags), new(cache.MSHR), new(cache.WriteBuffer)
	}
	arr.Init(cfg.Cache)
	mshr.Init(cfg.MSHREntries)
	wb.Init(cfg.WriteBufferSlots)
	*l = L1Controller{
		id:    id,
		eng:   eng,
		cfg:   cfg,
		cache: arr,
		mshr:  mshr,
		wb:    wb,
		reqs:  l.reqs,
		// A finished run leaves no store stalled; clear drops a stale
		// callback all the same.
		stalledStores: l.stalledStores[:0],
		lastHit:       noHit,
	}
	clear(l.stalledStores[:cap(l.stalledStores)])
	l.retryFillFn = func(a any) { l.requestFill(a.(*loadReq)) }
	l.finishLoadDone = func(a any, _ mem.Addr) { l.finishLoad(a.(*loadReq)) }
	l.fillDone = func(_ any, block mem.Addr) { l.fill(block) }
	l.drainDoneFn = func(any, mem.Addr) { l.drainDone() }
	l.startDrainFn = l.startDrain
}

// SetLowerLevel wires the controller to its private L2.
func (l *L1Controller) SetLowerLevel(below LowerLevel) { l.below = below }

// WriteBuffer exposes the write buffer (used by the Table I pending-write
// check and by tests).
func (l *L1Controller) WriteBuffer() *cache.WriteBuffer { return l.wb }

// ID returns the core index this L1 belongs to.
func (l *L1Controller) ID() int { return l.id }

// block returns the block address for a.
func (l *L1Controller) block(a mem.Addr) mem.Addr {
	return mem.BlockAddr(a, l.cfg.Cache.LineBytes)
}

// noHit is lastHit's empty value.  Block addresses are multiples of the
// line size, at least 2, so 1 is never one (cache.Tags marks an empty way
// the same way).
const noHit mem.Addr = 1

// hit reports whether the block holding a is present and, when it is,
// makes it the most recently used way of its set.
func (l *L1Controller) hit(a mem.Addr) bool {
	block := l.block(a)
	if block == l.lastHit {
		return true
	}
	set, way, ok := l.cache.Lookup(a)
	if !ok {
		return false
	}
	l.cache.Touch(set, way)
	l.lastHit = block
	return true
}

// loadReq carries the per-miss state (issue cycle for AMAT, completion
// callback) through the cache pipeline.  Records are pooled so the load
// path allocates nothing in steady state.
type loadReq struct {
	addr  mem.Addr
	start sim.Cycle
	done  func()
}

// newReq takes a pooled request record.
func (l *L1Controller) newReq(a mem.Addr, start sim.Cycle, done func()) *loadReq {
	req := l.reqs.Get()
	req.addr, req.start, req.done = a, start, done
	return req
}

// finishLoad completes a load: it records the observed latency for AMAT,
// recycles the request record, and fires the caller's callback.
func (l *L1Controller) finishLoad(req *loadReq) {
	l.LoadLatency.Observe(uint64(l.eng.Now() - req.start))
	done := req.done
	l.reqs.Put(req)
	if done != nil {
		done()
	}
}

// Read services a load and records its latency for AMAT.  A hit completes
// the L1 latency after issue without an engine event: Read returns the
// completion's mark (sim.Engine.MarkAt) and true, and never calls done.  Its
// latency is recorded at issue, which the order-free sum, count, minimum
// and maximum of LoadLatency allow.  A miss returns false, and done fires
// when the fill delivers the data.
func (l *L1Controller) Read(a mem.Addr, done func()) (sim.Mark, bool) {
	l.Loads.Inc()
	if l.hit(a) {
		l.LoadHits.Inc()
		lat := l.cfg.Cache.Latency()
		l.LoadLatency.Observe(uint64(lat))
		return l.eng.MarkAt(lat), true
	}
	l.LoadMisses.Inc()
	l.requestFill(l.newReq(a, l.eng.Now(), done))
	return sim.Mark{}, false
}

// requestFill allocates an MSHR entry (retrying while full) and, for primary
// misses, asks the L2 for the block.  The waiter and the L2 request both use
// pre-bound callbacks with pooled records: no closures per miss.
func (l *L1Controller) requestFill(req *loadReq) {
	block := l.block(req.addr)
	entry, isNew := l.mshr.Allocate(block, false)
	if entry == nil {
		// MSHR full: retry after a back-off (pooled, no closure).
		l.RetryEvents.Inc()
		l.eng.ScheduleArg(l.cfg.RetryCycles, l.retryFillFn, req)
		return
	}
	l.mshr.AddWaiter(entry, l.finishLoadDone, req)
	if !isNew {
		return
	}
	l.below.Read(block, l.fillDone, nil)
}

// fill installs a block returned by the L2 and wakes all merged waiters.
func (l *L1Controller) fill(block mem.Addr) {
	l.lastHit = noHit
	set, way, hit := l.cache.Lookup(block)
	if !hit {
		// Write-through L1: the victim is clean, so Install overwrites it.
		way = l.cache.Victim(set)
		l.cache.Install(block, set, way)
	} else {
		l.cache.Touch(set, way)
	}
	// Waiters observe the L1 hit latency on top of the fill.
	l.mshr.CompleteDeliver(block, l.eng, l.cfg.Cache.Latency())
}

// Write services a store.  The L1 is write-through no-write-allocate: the
// line is updated only on a hit, and the store always enters the write
// buffer for propagation to the L2.  The store completes the L1 latency
// after the write buffer accepts it (weak consistency: the core does not
// wait for the L2).  A store the buffer takes at once completes without an
// engine event: Write returns the completion's mark and true, and never
// calls done.  A store that finds the buffer full queues until a drain
// frees a slot; Write returns false, and done fires when it completes.
func (l *L1Controller) Write(a mem.Addr, done func()) (sim.Mark, bool) {
	l.Stores.Inc()
	if l.hit(a) {
		l.StoreHits.Inc()
	} else {
		l.StoreMisses.Inc()
	}
	block := l.block(a)
	if !l.wb.Push(block) {
		l.RetryEvents.Inc()
		l.stalledStores = append(l.stalledStores, pendingStore{block: block, start: l.eng.Now(), done: done})
		return sim.Mark{}, false
	}
	l.StoreAcceptDelay.Observe(0)
	m := l.eng.MarkAt(l.cfg.Cache.Latency())
	l.startDrain()
	return m, true
}

// pendingStore is a store waiting for a write-buffer slot.
type pendingStore struct {
	block mem.Addr
	start sim.Cycle
	done  func()
}

// acceptStore completes the processor side of a stalled store once it sits
// in the write buffer.
func (l *L1Controller) acceptStore(start sim.Cycle, done func()) {
	l.StoreAcceptDelay.Observe(uint64(l.eng.Now() - start))
	if done != nil {
		l.eng.Schedule(l.cfg.Cache.Latency(), done)
	}
}

// admitStalledStores moves queued stores into the write buffer while space
// is available, oldest first.
func (l *L1Controller) admitStalledStores() {
	n := 0
	for _, ps := range l.stalledStores {
		if !l.wb.Push(ps.block) {
			break
		}
		l.acceptStore(ps.start, ps.done)
		n++
	}
	if n > 0 {
		rest := copy(l.stalledStores, l.stalledStores[n:])
		clear(l.stalledStores[rest:])
		l.stalledStores = l.stalledStores[:rest]
	}
}

// startDrain begins (or continues) propagating buffered stores to the L2.
func (l *L1Controller) startDrain() {
	if l.draining {
		return
	}
	block, ok := l.wb.Pop()
	if !ok {
		return
	}
	// Popping freed a slot: admit any stalled stores before going to the L2
	// so their acceptance latency is not inflated by the L2 round trip.
	l.admitStalledStores()
	l.draining = true
	l.below.Write(block, l.drainDoneFn, nil)
}

// drainDone resumes the drain loop after the L2 accepts a buffered store.
func (l *L1Controller) drainDone() {
	l.draining = false
	l.admitStalledStores()
	l.eng.Schedule(l.cfg.DrainGapCycles, l.startDrainFn)
}

// InvalidateBlock removes the block from the L1 if present.  The L2 calls
// this to preserve inclusion when it invalidates, evicts or turns off a line
// (the InvUpp action in Figure 2).  It returns true when a copy was present.
func (l *L1Controller) InvalidateBlock(block mem.Addr) bool {
	set, way, hit := l.cache.Lookup(block)
	if !hit {
		return false
	}
	l.BackInvalidates.Inc()
	l.cache.Invalidate(set, way)
	l.lastHit = noHit
	return true
}

// HasPendingWrite reports whether the write buffer still holds a store to
// the block — the Table I "pending write" condition the turn-off logic must
// honour.
func (l *L1Controller) HasPendingWrite(block mem.Addr) bool {
	return l.wb.HasPending(block)
}

// Accesses returns the total number of loads and stores serviced.
func (l *L1Controller) Accesses() uint64 {
	return l.Loads.Value() + l.Stores.Value()
}

// MissRate returns the combined L1 miss rate.
func (l *L1Controller) MissRate() float64 {
	return stats.RatioU(l.LoadMisses.Value()+l.StoreMisses.Value(), l.Accesses())
}

// AMAT returns the average load latency in cycles.
func (l *L1Controller) AMAT() float64 { return l.LoadLatency.Mean() }
