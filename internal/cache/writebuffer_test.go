package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cmpleak/internal/mem"
)

func TestWriteBufferFIFO(t *testing.T) {
	b := NewWriteBuffer(8)
	for _, a := range []mem.Addr{0x100, 0x200, 0x300} {
		if !b.Push(a) {
			t.Fatalf("push of %v rejected", a)
		}
	}
	want := []mem.Addr{0x100, 0x200, 0x300}
	for _, w := range want {
		got, ok := b.Pop()
		if !ok || got != w {
			t.Fatalf("pop = %v/%v, want %v", got, ok, w)
		}
	}
	if _, ok := b.Pop(); ok {
		t.Fatal("pop from empty buffer succeeded")
	}
}

func TestWriteBufferCoalescing(t *testing.T) {
	b := NewWriteBuffer(2)
	b.Push(0x100)
	b.Push(0x100)
	b.Push(0x100)
	if b.Len() != 1 {
		t.Fatalf("coalesced buffer length %d, want 1", b.Len())
	}
	if b.Coalesced.Value() != 2 {
		t.Fatalf("coalesced count %d, want 2", b.Coalesced.Value())
	}
}

func TestWriteBufferCapacityAndStall(t *testing.T) {
	b := NewWriteBuffer(2)
	b.Push(0x100)
	b.Push(0x200)
	if !b.Full() {
		t.Fatal("buffer should be full")
	}
	if b.Push(0x300) {
		t.Fatal("push beyond capacity should fail")
	}
	if b.FullStall.Value() != 1 {
		t.Fatal("stall not counted")
	}
	// Coalescing into an existing block still works while full.
	if !b.Push(0x200) {
		t.Fatal("coalescing push rejected while full")
	}
}

func TestWriteBufferHasPending(t *testing.T) {
	b := NewWriteBuffer(4)
	b.Push(0x100)
	if !b.HasPending(0x100) {
		t.Fatal("pending write not reported")
	}
	if b.HasPending(0x200) {
		t.Fatal("absent block reported pending")
	}
	b.Pop()
	if b.HasPending(0x100) {
		t.Fatal("drained block still reported pending")
	}
}

// A buffer of no slots would refuse every store forever: NewWriteBuffer
// refuses the capacity instead.
func TestWriteBufferRefusesZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWriteBuffer(0) did not panic")
		}
	}()
	NewWriteBuffer(0)
}

// Property: the buffer never holds more distinct blocks than its capacity,
// and HasPending is consistent with membership.
func TestPropertyWriteBufferInvariants(t *testing.T) {
	f := func(ops []uint8) bool {
		b := NewWriteBuffer(4)
		live := make(map[mem.Addr]bool)
		for _, op := range ops {
			block := mem.Addr(op%16) * 64
			if op&0x80 != 0 {
				if b.Push(block) {
					live[block] = true
				}
			} else {
				if popped, ok := b.Pop(); ok {
					delete(live, popped)
				}
			}
			if b.Len() > 4 {
				return false
			}
			for blk := range live {
				if !b.HasPending(blk) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
