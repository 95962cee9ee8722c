package cache

import "cmpleak/internal/mem"

// This file holds addrTable, the one open-addressing table the per-access
// hot paths use in place of Go maps.  It maps block addresses to values:
// AddrSet wraps addrTable[struct{}] for membership (the write buffer's
// coalesce check, the L2 controller's decayed-block attribution), and the
// miss-status registers use addrTable[*MSHREntry].  Keys and values live in
// parallel slices, so a probe reads only the key array (a zero-size value
// type costs no memory at all).  Fibonacci hashing with linear probing
// makes a lookup touch one cache line in the common case, and
// backward-shift deletion means the table never accumulates tombstones no
// matter how many allocate/complete cycles a long run goes through.  The
// tables hold a handful of live entries (MSHRs and write buffers are 8–16
// deep), which makes the probe chains essentially always length one; the
// Go map they replace paid hash setup, bucket indirection and growth churn
// for the same job (~9% of the replay profile across MSHR + write buffer).
//
// The zero address is the empty-slot sentinel; a genuine block 0 (possible
// only for custom traces — the built-in generators start at 1 MB) is
// tracked in a side slot.

// fib64 is the 64-bit Fibonacci hashing multiplier.
const fib64 = 0x9E3779B97F4A7C15

// tableMinSlots is the initial table size; a power of two.
const tableMinSlots = 64

// tableHome is the preferred slot of an address: low bits are the line
// offset and carry no entropy, but the multiply spreads them through the
// top bits the mask keeps.
func tableHome(a mem.Addr, mask uint64) uint64 {
	return (uint64(a) * fib64 >> 32) & mask
}

// addrTable is an open-addressing map from block addresses to V.  The zero
// value is not ready for use; call newAddrTable.
type addrTable[V any] struct {
	keys    []mem.Addr
	vals    []V
	mask    uint64
	n       int // live entries in keys (excludes block 0)
	hasZero bool
	zeroVal V // block 0's value, when hasZero
}

func newAddrTable[V any]() addrTable[V] {
	return addrTable[V]{
		keys: make([]mem.Addr, tableMinSlots),
		vals: make([]V, tableMinSlots),
		mask: tableMinSlots - 1,
	}
}

// len returns the number of live entries.
func (t *addrTable[V]) len() int {
	if t.hasZero {
		return t.n + 1
	}
	return t.n
}

// slot returns the slot holding a (a != 0) and true, or the empty slot that
// ends a's probe chain and false.
func (t *addrTable[V]) slot(a mem.Addr) (uint64, bool) {
	i := tableHome(a, t.mask)
	for {
		switch t.keys[i] {
		case 0:
			return i, false
		case a:
			return i, true
		}
		i = (i + 1) & t.mask
	}
}

// get returns the value for a and whether a is present.
func (t *addrTable[V]) get(a mem.Addr) (V, bool) {
	if a == 0 {
		return t.zeroVal, t.hasZero
	}
	i, ok := t.slot(a)
	return t.vals[i], ok // an empty slot's value is the zero V
}

// put inserts or overwrites the value for a.
func (t *addrTable[V]) put(a mem.Addr, v V) {
	if a == 0 {
		t.zeroVal, t.hasZero = v, true
		return
	}
	if (uint64(t.n)+1)*4 > uint64(len(t.keys))*3 {
		t.grow()
	}
	i, ok := t.slot(a)
	if !ok {
		t.keys[i] = a
		t.n++
	}
	t.vals[i] = v
}

// take removes a and returns its value and whether it was present.
func (t *addrTable[V]) take(a mem.Addr) (V, bool) {
	var zero V
	if a == 0 {
		v, ok := t.zeroVal, t.hasZero
		t.zeroVal, t.hasZero = zero, false
		return v, ok
	}
	i, ok := t.slot(a)
	if !ok {
		return zero, false
	}
	v := t.vals[i]
	t.deleteAt(i)
	t.n--
	return v, true
}

// deleteAt empties slot i, backward-shifting the tail of the probe chain so
// lookups never need tombstones: each following entry moves into the hole
// when its home position does not lie strictly between the hole and it.
func (t *addrTable[V]) deleteAt(i uint64) {
	j := i
	for {
		j = (j + 1) & t.mask
		a := t.keys[j]
		if a == 0 {
			break
		}
		// Distance from the entry's home to its slot, vs from the hole to
		// the slot: if the home is cyclically after the hole, the entry is
		// reachable without passing the hole and must stay.
		if (j-tableHome(a, t.mask))&t.mask >= (j-i)&t.mask {
			t.keys[i] = a
			t.vals[i] = t.vals[j]
			i = j
		}
	}
	var zero V
	t.keys[i] = 0
	t.vals[i] = zero
}

// grow doubles the table and reinserts every entry.
func (t *addrTable[V]) grow() {
	oldK, oldV := t.keys, t.vals
	t.keys = make([]mem.Addr, len(oldK)*2)
	t.vals = make([]V, len(oldK)*2)
	t.mask = uint64(len(t.keys)) - 1
	t.n = 0
	for i, a := range oldK {
		if a != 0 {
			t.put(a, oldV[i])
		}
	}
}

// AddrSet is an open-addressing set of block addresses.  The zero value is
// not ready for use; call NewAddrSet.
type AddrSet struct{ t addrTable[struct{}] }

// NewAddrSet returns an empty set.
func NewAddrSet() AddrSet { return AddrSet{newAddrTable[struct{}]()} }

// Len returns the number of addresses in the set.
func (s *AddrSet) Len() int { return s.t.len() }

// Has reports whether the address is in the set.
func (s *AddrSet) Has(a mem.Addr) bool {
	_, ok := s.t.get(a)
	return ok
}

// Add inserts a block address; inserting an existing address is a no-op.
func (s *AddrSet) Add(a mem.Addr) { s.t.put(a, struct{}{}) }

// Take reports whether the address is in the set and removes it if so.
func (s *AddrSet) Take(a mem.Addr) bool {
	_, ok := s.t.take(a)
	return ok
}
