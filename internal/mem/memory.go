package mem

import (
	"fmt"

	"cmpleak/internal/sim"
	"cmpleak/internal/stats"
)

// AccessKind distinguishes reads (line fills) from writes (write-backs and
// write-through traffic reaching memory).
type AccessKind uint8

const (
	// Read is a line fill from memory.
	Read AccessKind = iota
	// Write is a write-back or uncached write to memory.
	Write
)

// Config holds the off-chip memory parameters.
type Config struct {
	// LatencyCycles is the unloaded round-trip latency of a read, in core
	// cycles (the paper's SESC setup uses a few hundred cycles).
	LatencyCycles sim.Cycle
	// BandwidthBytesPerCycle is the sustained external bus bandwidth; it
	// determines how long each transfer occupies the memory channel.
	BandwidthBytesPerCycle float64
	// BlockSize is the transfer granularity in bytes.
	BlockSize uint64
}

// DefaultConfig returns parameters matching the paper's external bus: a
// high-latency memory behind a narrower off-chip channel.
func DefaultConfig() Config {
	return Config{
		LatencyCycles:          300,
		BandwidthBytesPerCycle: 8, // ~8 bytes/core-cycle external channel
		BlockSize:              64,
	}
}

// Validate checks that the transfer granularity and the channel bandwidth
// are positive.
func (c Config) Validate() error {
	if c.BlockSize == 0 {
		return fmt.Errorf("mem: BlockSize must be positive")
	}
	if c.BandwidthBytesPerCycle <= 0 {
		return fmt.Errorf("mem: BandwidthBytesPerCycle must be positive")
	}
	return nil
}

// Memory models the off-chip DRAM: a fixed latency plus a channel that can
// serialize transfers when oversubscribed.  It also accounts traffic so the
// experiment layer can compute the memory-bandwidth increase of Figure 4a.
type Memory struct {
	cfg Config
	eng *sim.Engine

	// busyUntil is the cycle at which the external channel becomes free.
	busyUntil sim.Cycle

	// Traffic counters.
	Reads        stats.Counter
	Writes       stats.Counter
	BytesRead    stats.Counter
	BytesWritten stats.Counter
	// StallCycles accumulates cycles requests spent waiting for the channel.
	StallCycles stats.Counter
}

// New returns a Memory bound to the engine; cfg must validate.
func New(eng *sim.Engine, cfg Config) *Memory {
	m := new(Memory)
	m.Init(eng, cfg)
	return m
}

// Init makes m in place the idle, zero-traffic memory New would build; cfg
// must validate.
func (m *Memory) Init(eng *sim.Engine, cfg Config) {
	*m = Memory{cfg: cfg, eng: eng}
}

// Config returns the memory configuration.
func (m *Memory) Config() Config { return m.cfg }

// transferCycles returns how long one block occupies the external channel.
func (m *Memory) transferCycles() sim.Cycle {
	c := sim.Cycle(float64(m.cfg.BlockSize) / m.cfg.BandwidthBytesPerCycle)
	if c == 0 {
		c = 1
	}
	return c
}

// Access issues a block transfer of the given kind and returns the latency
// charged to the request: until the data would be available (reads) or
// accepted (writes).
func (m *Memory) Access(kind AccessKind) sim.Cycle {
	now := m.eng.Now()
	start := now
	if m.busyUntil > start {
		m.StallCycles.Add(uint64(m.busyUntil - start))
		start = m.busyUntil
	}
	occupancy := m.transferCycles()
	m.busyUntil = start + occupancy

	var latency sim.Cycle
	switch kind {
	case Read:
		m.Reads.Inc()
		m.BytesRead.Add(m.cfg.BlockSize)
		latency = (start - now) + m.cfg.LatencyCycles + occupancy
	case Write:
		m.Writes.Inc()
		m.BytesWritten.Add(m.cfg.BlockSize)
		// Writes are posted: the requester only waits for channel admission.
		latency = (start - now) + occupancy
	}
	return latency
}

// TotalBytes returns all traffic that crossed the external channel.
func (m *Memory) TotalBytes() uint64 {
	return m.BytesRead.Value() + m.BytesWritten.Value()
}

// TotalAccesses returns the number of block transfers performed.
func (m *Memory) TotalAccesses() uint64 {
	return m.Reads.Value() + m.Writes.Value()
}
