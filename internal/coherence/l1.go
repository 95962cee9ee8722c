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
	Cache            cache.Config
	MSHREntries      int
	WriteBufferSlots int
	// RetryCycles is the back-off used when the MSHR or write buffer is
	// full; it must be positive.
	RetryCycles sim.Cycle
	// DrainGapCycles separates consecutive write-buffer drains toward L2;
	// it must be positive.
	DrainGapCycles sim.Cycle
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

	draining bool
	// stalledStores queues stores that found the write buffer full; they
	// are admitted in FIFO order as drains free slots (no polling).  The
	// slice is consumed through stalledHead and compacted when it empties,
	// so neither the backing array nor the pinned done closures of consumed
	// entries are retained.
	stalledStores []pendingStore
	stalledHead   int

	// reqs pools per-load request records; together with the pre-bound
	// callbacks below they keep the whole load path — hit, miss, MSHR merge
	// and L2 fill — free of per-event allocations.
	reqs           sim.Pool[loadReq]
	finishLoadFn   sim.ArgFunc
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
	l := new(L1Controller)
	if err := l.Init(id, eng, cfg); err != nil {
		return nil, err
	}
	return l, nil
}

// Init makes l in place the controller NewL1Controller would build, with no
// lower level and zero statistics; its tag store, MSHR and write buffer are
// rebuilt in their own storage (cache.Tags.Init and the others), and it
// keeps its request pool.
func (l *L1Controller) Init(id int, eng *sim.Engine, cfg L1Config) error {
	// A zero back-off would re-poll a full MSHR or write buffer within the
	// same cycle without end.
	if cfg.RetryCycles == 0 {
		return fmt.Errorf("coherence: %s: RetryCycles must be positive", cfg.Cache.Name)
	}
	if cfg.DrainGapCycles == 0 {
		return fmt.Errorf("coherence: %s: DrainGapCycles must be positive", cfg.Cache.Name)
	}
	arr, mshr, wb := l.cache, l.mshr, l.wb
	if arr == nil {
		arr, mshr, wb = new(cache.Tags), new(cache.MSHR), new(cache.WriteBuffer)
	}
	if err := arr.Init(cfg.Cache); err != nil {
		return err
	}
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
	}
	l.finishLoadFn = func(a any) { l.finishLoad(a.(*loadReq)) }
	l.retryFillFn = func(a any) { l.requestFill(a.(*loadReq)) }
	l.finishLoadDone = func(a any, _ mem.Addr) { l.finishLoad(a.(*loadReq)) }
	l.fillDone = func(_ any, block mem.Addr) { l.fill(block) }
	l.drainDoneFn = func(any, mem.Addr) { l.drainDone() }
	l.startDrainFn = l.startDrain
	return nil
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

// loadReq carries the per-load state (issue cycle for AMAT, completion
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

// Read services a load.  done fires when the data is available; the
// controller records the observed latency for AMAT.
func (l *L1Controller) Read(a mem.Addr, done func()) {
	l.Loads.Inc()
	start := l.eng.Now()
	set, way, hit := l.cache.Lookup(a)
	if hit {
		l.LoadHits.Inc()
		l.cache.Touch(set, way)
		l.eng.ScheduleArg(l.cfg.Cache.Latency(), l.finishLoadFn, l.newReq(a, start, done))
		return
	}
	l.LoadMisses.Inc()
	l.requestFill(l.newReq(a, start, done))
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
// buffer for propagation to the L2.  done fires when the store has been
// accepted into the write buffer (weak consistency: the core does not wait
// for the L2).
func (l *L1Controller) Write(a mem.Addr, done func()) {
	l.Stores.Inc()
	start := l.eng.Now()
	set, way, hit := l.cache.Lookup(a)
	if hit {
		l.StoreHits.Inc()
		l.cache.Touch(set, way)
	} else {
		l.StoreMisses.Inc()
	}
	l.tryEnqueueStore(l.block(a), start, done)
}

// pendingStore is a store waiting for a write-buffer slot.
type pendingStore struct {
	block mem.Addr
	start sim.Cycle
	done  func()
}

// tryEnqueueStore pushes the store into the write buffer; when the buffer is
// full the store queues and is admitted as soon as a drain frees a slot.
func (l *L1Controller) tryEnqueueStore(block mem.Addr, start sim.Cycle, done func()) {
	if !l.wb.Push(block) {
		l.RetryEvents.Inc()
		l.stalledStores = append(l.stalledStores, pendingStore{block: block, start: start, done: done})
		return
	}
	l.acceptStore(start, done)
	l.startDrain()
}

// acceptStore completes the processor side of a store once it sits in the
// write buffer.
func (l *L1Controller) acceptStore(start sim.Cycle, done func()) {
	l.StoreAcceptDelay.Observe(uint64(l.eng.Now() - start))
	if done != nil {
		l.eng.Schedule(l.cfg.Cache.Latency(), done)
	}
}

// admitStalledStores moves queued stores into the write buffer while space
// is available, oldest first.  Consumed slots are zeroed immediately so the
// done closures are not pinned, and the backing array is reclaimed both
// when the queue empties and — so that a queue which never fully drains
// under sustained pressure cannot grow without bound — whenever the
// consumed prefix reaches half of a non-trivial backing array.
func (l *L1Controller) admitStalledStores() {
	for l.stalledHead < len(l.stalledStores) {
		ps := l.stalledStores[l.stalledHead]
		if !l.wb.Push(ps.block) {
			l.compactStalledStores()
			return
		}
		l.stalledStores[l.stalledHead] = pendingStore{}
		l.stalledHead++
		l.acceptStore(ps.start, ps.done)
	}
	l.stalledStores = l.stalledStores[:0]
	l.stalledHead = 0
}

// compactStalledStores slides the live entries to the front of the backing
// array once the zeroed prefix dominates it, bounding the queue's footprint
// by O(live entries) instead of O(stalls ever observed).
func (l *L1Controller) compactStalledStores() {
	if l.stalledHead < 16 || l.stalledHead*2 < len(l.stalledStores) {
		return
	}
	n := copy(l.stalledStores, l.stalledStores[l.stalledHead:])
	tail := l.stalledStores[n:]
	for i := range tail {
		tail[i] = pendingStore{}
	}
	l.stalledStores = l.stalledStores[:n]
	l.stalledHead = 0
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
