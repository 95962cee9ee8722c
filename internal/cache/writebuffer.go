package cache

import (
	"cmpleak/internal/mem"
	"cmpleak/internal/stats"
)

// WriteBuffer models the L1 write buffer of a write-through cache
// (Figure 1 of the paper).  Stores are posted into the buffer and drained
// toward the L2 in FIFO order; writes to a block already buffered coalesce.
// The buffer also answers the "pending write" check of Table I: a line with
// a pending write in the buffer may not be considered clean by the turn-off
// logic.
//
// The FIFO is a power-of-two ring (the previous slice-off-the-front queue
// walked its backing array forward and reallocated every few pushes) and
// membership is an open-addressing AddrSet (the previous map paid hash
// setup and growth churn on every store of the run).
type WriteBuffer struct {
	capacity int
	ring     []mem.Addr // power-of-two ring; live entries are [head, tail)
	rmask    uint64
	head     uint64
	tail     uint64
	pending  AddrSet // blocks currently buffered

	// Statistics.
	Coalesced stats.Counter
	FullStall stats.Counter
}

// writeBufferMinRing sizes the smallest ring; a power of two.
const writeBufferMinRing = 16

// NewWriteBuffer builds a buffer holding up to capacity distinct blocks;
// capacity <= 0 means unlimited.
func NewWriteBuffer(capacity int) *WriteBuffer {
	b := new(WriteBuffer)
	b.Init(capacity)
	return b
}

// Init makes b an empty buffer of the given capacity in place, as
// NewWriteBuffer would build it, reusing its ring and coalesce set.
func (b *WriteBuffer) Init(capacity int) {
	ring := writeBufferMinRing
	for ring < capacity {
		ring *= 2
	}
	pending := b.pending
	pending.Init()
	*b = WriteBuffer{
		capacity: capacity,
		ring:     zeroed(b.ring, ring),
		rmask:    uint64(ring) - 1,
		pending:  pending,
	}
}

// Full reports whether a new block cannot currently be accepted.
func (b *WriteBuffer) Full() bool {
	return b.capacity > 0 && b.Len() >= b.capacity
}

// Push records a store to block.  It returns false (and counts a stall) when
// the buffer is full and the block is not already present.
func (b *WriteBuffer) Push(block mem.Addr) bool {
	if b.pending.Has(block) {
		b.Coalesced.Inc()
		return true
	}
	if b.Full() {
		b.FullStall.Inc()
		return false
	}
	if b.tail-b.head == uint64(len(b.ring)) {
		b.growRing()
	}
	b.ring[b.tail&b.rmask] = block
	b.tail++
	b.pending.Add(block)
	return true
}

// Pop removes and returns the oldest buffered block; ok is false when the
// buffer is empty.
func (b *WriteBuffer) Pop() (block mem.Addr, ok bool) {
	if b.head == b.tail {
		return 0, false
	}
	block = b.ring[b.head&b.rmask]
	b.head++
	b.pending.Take(block)
	return block, true
}

// HasPending reports whether a store to block is still buffered — the
// Table I "pending write" condition.
func (b *WriteBuffer) HasPending(block mem.Addr) bool {
	return b.pending.Has(block)
}

// Len returns the number of distinct blocks buffered.
func (b *WriteBuffer) Len() int { return int(b.tail - b.head) }

// growRing doubles the ring (unlimited-capacity buffers only), re-laying
// the live entries out from index 0.
func (b *WriteBuffer) growRing() {
	old := b.ring
	n := b.tail - b.head
	b.ring = make([]mem.Addr, len(old)*2)
	for i := uint64(0); i < n; i++ {
		b.ring[i] = old[(b.head+i)&b.rmask]
	}
	b.rmask = uint64(len(b.ring)) - 1
	b.head, b.tail = 0, n
}
