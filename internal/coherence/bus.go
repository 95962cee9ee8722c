package coherence

import (
	"fmt"

	"cmpleak/internal/mem"
	"cmpleak/internal/sim"
	"cmpleak/internal/stats"
)

// TransactionKind enumerates the snoopy bus transactions of the MESI
// protocol as used in the paper (Figure 2 edge labels).
type TransactionKind uint8

const (
	// BusRd is a read request for a block (load miss).
	BusRd TransactionKind = iota
	// BusRdX is a read-exclusive request (store miss): other copies are
	// invalidated and the data is returned.
	BusRdX
	// BusUpgr is an upgrade (store hit on a Shared line): other copies are
	// invalidated, no data transfer is needed.
	BusUpgr
	// WriteBack pushes a dirty block to memory (replacement or turn-off of
	// a Modified line).
	WriteBack
)

// String names the transaction kind.
func (k TransactionKind) String() string {
	switch k {
	case BusRd:
		return "BusRd"
	case BusRdX:
		return "BusRdX"
	case BusUpgr:
		return "BusUpgr"
	case WriteBack:
		return "WriteBack"
	default:
		return fmt.Sprintf("TransactionKind(%d)", uint8(k))
	}
}

// NeedsData reports whether the transaction transfers a full cache block on
// the bus (as opposed to an address-only transaction).
func (k TransactionKind) NeedsData() bool {
	return k == BusRd || k == BusRdX || k == WriteBack
}

// Transaction is one bus operation.
type Transaction struct {
	Kind      TransactionKind
	Block     mem.Addr
	Requester int
}

// SnoopResponse is the aggregate answer of the other caches to a snooped
// transaction.
type SnoopResponse struct {
	// Shared is asserted when at least one other cache keeps a copy.
	Shared bool
	// Dirty is asserted when another cache held the block Modified and is
	// flushing it (cache-to-cache supply plus memory update).
	Dirty bool
}

// Merge folds another response into r.
func (r *SnoopResponse) Merge(o SnoopResponse) {
	r.Shared = r.Shared || o.Shared
	r.Dirty = r.Dirty || o.Dirty
}

// Snooper is implemented by every L2 coherence controller attached to the
// bus.  Snoop is invoked for transactions issued by other controllers.
type Snooper interface {
	// ControllerID identifies the controller (its core index).
	ControllerID() int
	// Snoop processes a remote transaction and returns this cache's
	// contribution to the snoop response.
	Snoop(txn Transaction) SnoopResponse
}

// ResultFunc is the completion callback of a bus transaction.  It receives
// the transaction it was issued for (so a pre-bound callback can recover
// the block without a per-miss closure) and the requester's arg verbatim
// (pooled per-request state, or nil when the transaction alone suffices).
type ResultFunc func(arg any, txn Transaction, res BusResult)

// BusResult is delivered to the requester when its transaction completes.
type BusResult struct {
	// Latency is the total cycles from Issue to data/completion.
	Latency sim.Cycle
	// Snoop is the merged snoop response.
	Snoop SnoopResponse
	// FromMemory reports whether the data came from memory rather than a
	// cache-to-cache flush.
	FromMemory bool
}

// BusConfig holds the shared-bus parameters.  The paper uses a pipelined
// 57 GB/s bus clocked at half the core clock.
type BusConfig struct {
	// ArbitrationCycles is charged to every transaction before it owns the
	// bus.
	ArbitrationCycles sim.Cycle
	// AddressCycles is the address-phase occupancy.
	AddressCycles sim.Cycle
	// BytesPerCycle is the data bandwidth in bytes per core cycle.
	BytesPerCycle float64
	// BlockBytes is the coherence granularity.
	BlockBytes uint64
	// CacheToCacheExtra is added when a dirty block is supplied by a peer
	// cache instead of memory.
	CacheToCacheExtra sim.Cycle
}

// DefaultBusConfig mirrors the paper's bus: high bandwidth, half core clock.
func DefaultBusConfig() BusConfig {
	return BusConfig{
		ArbitrationCycles: 2,
		AddressCycles:     2,
		BytesPerCycle:     16,
		BlockBytes:        64,
		CacheToCacheExtra: 8,
	}
}

// Validate checks that the coherence granularity and the data bandwidth are
// positive.
func (c BusConfig) Validate() error {
	if c.BlockBytes == 0 {
		return fmt.Errorf("coherence: bus BlockBytes must be positive")
	}
	if c.BytesPerCycle <= 0 {
		return fmt.Errorf("coherence: bus BytesPerCycle must be positive")
	}
	return nil
}

// Bus is the shared snoopy interconnect between the private L2 caches and
// the path to memory.
type Bus struct {
	cfg      BusConfig
	eng      *sim.Engine
	memory   *mem.Memory
	snoopers []Snooper

	busyUntil sim.Cycle

	// comps pools completion records so delivering a BusResult schedules a
	// pre-bound pooled event instead of allocating a closure per
	// transaction.
	comps      sim.Pool[busCompletion]
	completeFn sim.ArgFunc

	// Statistics.
	Transactions    stats.Counter
	DataTransfers   stats.Counter
	AddressOnly     stats.Counter
	CacheToCache    stats.Counter
	BytesTransfered stats.Counter
	BusyCycles      stats.Counter
	ArbStallCycles  stats.Counter
	// PerKind counts transactions by kind.
	PerKind [4]stats.Counter
}

// NewBus builds a bus bound to the engine and memory; cfg must validate.
func NewBus(eng *sim.Engine, memory *mem.Memory, cfg BusConfig) *Bus {
	b := new(Bus)
	b.Init(eng, memory, cfg)
	return b
}

// Init makes b in place the idle bus NewBus would build, with no snoopers
// attached and zero statistics; cfg must validate.  It keeps the snooper
// slice's storage and its completion pool.
func (b *Bus) Init(eng *sim.Engine, memory *mem.Memory, cfg BusConfig) {
	snoopers := b.snoopers
	clear(snoopers)
	*b = Bus{cfg: cfg, eng: eng, memory: memory, snoopers: snoopers[:0], comps: b.comps}
	b.completeFn = b.complete
}

// busCompletion carries one transaction's callback, transaction and result
// to its delivery cycle; records come from the bus's pool.
type busCompletion struct {
	done ResultFunc
	arg  any
	txn  Transaction
	res  BusResult
}

// complete delivers a pooled completion (the engine-facing ArgFunc).
func (b *Bus) complete(a any) {
	c := a.(*busCompletion)
	done, arg, txn, res := c.done, c.arg, c.txn, c.res
	b.comps.Put(c)
	done(arg, txn, res)
}

// Config returns the bus configuration.
func (b *Bus) Config() BusConfig { return b.cfg }

// Attach registers a snooping controller.  Controllers snoop every
// transaction except their own.
func (b *Bus) Attach(s Snooper) { b.snoopers = append(b.snoopers, s) }

// Snoopers returns the number of attached controllers.
func (b *Bus) Snoopers() int { return len(b.snoopers) }

// dataCycles returns the data-phase occupancy of one block.
func (b *Bus) dataCycles() sim.Cycle {
	c := sim.Cycle(float64(b.cfg.BlockBytes) / b.cfg.BytesPerCycle)
	if c == 0 {
		c = 1
	}
	return c
}

// Issue places a transaction on the bus.  The done callback receives the
// transaction and result when it completes (data available for reads,
// accepted for write-backs and upgrades); arg is handed back to done
// verbatim.  Issue returns the completion latency so synchronous callers
// can also use it.
func (b *Bus) Issue(txn Transaction, done ResultFunc, arg any) sim.Cycle {
	now := b.eng.Now()
	start := now + b.cfg.ArbitrationCycles
	if b.busyUntil > start {
		b.ArbStallCycles.Add(uint64(b.busyUntil - start))
		start = b.busyUntil
	}

	b.Transactions.Inc()
	b.PerKind[txn.Kind].Inc()

	// Snoop phase: all other controllers observe the transaction when it
	// wins the bus.  Snoops are resolved immediately (state changes take
	// effect now); their latency is folded into the address phase.
	var resp SnoopResponse
	for _, s := range b.snoopers {
		if s.ControllerID() == txn.Requester {
			continue
		}
		resp.Merge(s.Snoop(txn))
	}

	occupancy := b.cfg.AddressCycles
	transferBytes := uint64(0)
	if txn.Kind.NeedsData() {
		occupancy += b.dataCycles()
		transferBytes = b.cfg.BlockBytes
		b.DataTransfers.Inc()
	} else {
		b.AddressOnly.Inc()
	}
	b.BytesTransfered.Add(transferBytes)
	b.BusyCycles.Add(uint64(occupancy))
	b.busyUntil = start + occupancy

	// Completion latency depends on where the data comes from.
	busPhase := (start - now) + occupancy
	var extra sim.Cycle
	fromMemory := false
	switch txn.Kind {
	case BusRd, BusRdX:
		if resp.Dirty {
			// Cache-to-cache flush; MESI also updates memory, which we
			// account as posted write traffic.
			b.CacheToCache.Inc()
			extra = b.cfg.CacheToCacheExtra
			b.memory.Access(mem.Write)
		} else {
			fromMemory = true
			extra = b.memory.Access(mem.Read)
		}
	case BusUpgr:
		extra = 0
	case WriteBack:
		extra = b.memory.Access(mem.Write)
	}

	total := busPhase + extra
	result := BusResult{Latency: total, Snoop: resp, FromMemory: fromMemory}
	if done != nil {
		c := b.comps.Get()
		c.done, c.arg, c.txn, c.res = done, arg, txn, result
		b.eng.ScheduleArg(total, b.completeFn, c)
	}
	return total
}

// Utilization returns the fraction of elapsed cycles the bus spent busy.
func (b *Bus) Utilization(elapsed sim.Cycle) float64 {
	return stats.RatioU(b.BusyCycles.Value(), uint64(elapsed))
}
