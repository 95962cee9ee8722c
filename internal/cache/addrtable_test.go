package cache

// Property tests for the open-addressing table that replaced Go maps on
// the per-access hot paths (see addrtable.go).  Backward-shift deletion is
// the part worth hammering: a wrong wrap-around comparison silently breaks
// probe chains only under specific collision layouts, so the table is
// driven — as AddrSet and as the MSHR's block → entry map — through long
// randomized add/take sequences against a Go map reference, with an
// address pool small enough to force collisions, growth and the
// zero-address side slot.

import (
	"testing"

	"cmpleak/internal/mem"
	"cmpleak/internal/sim"
)

// addrPool builds n line-aligned addresses including the zero address, so
// the sentinel side slot is exercised alongside real slots.
func addrPool(n int) []mem.Addr {
	pool := make([]mem.Addr, n)
	for i := 1; i < n; i++ {
		pool[i] = mem.Addr(i * 64)
	}
	return pool
}

func TestAddrSetMatchesMapReference(t *testing.T) {
	rng := sim.NewRand(99)
	pool := addrPool(400)
	set := NewAddrSet()
	ref := make(map[mem.Addr]bool)
	for op := 0; op < 200000; op++ {
		a := pool[rng.Intn(len(pool))]
		switch rng.Intn(3) {
		case 0:
			set.Add(a)
			ref[a] = true
		case 1:
			if got, want := set.Take(a), ref[a]; got != want {
				t.Fatalf("op %d: Take(%#x) = %v, reference %v", op, a, got, want)
			}
			delete(ref, a)
		default:
			if got, want := set.Has(a), ref[a]; got != want {
				t.Fatalf("op %d: Has(%#x) = %v, reference %v", op, a, got, want)
			}
		}
		if set.Len() != len(ref) {
			t.Fatalf("op %d: Len() = %d, reference %d", op, set.Len(), len(ref))
		}
	}
	for a := range ref {
		if !set.Has(a) {
			t.Fatalf("final sweep: %#x missing from set", a)
		}
	}
}

func TestAddrSetGrowth(t *testing.T) {
	set := NewAddrSet()
	const n = 10000
	for i := 0; i < n; i++ {
		set.Add(mem.Addr(i * 64))
	}
	if set.Len() != n {
		t.Fatalf("Len() = %d after %d inserts", set.Len(), n)
	}
	for i := 0; i < n; i++ {
		if !set.Has(mem.Addr(i * 64)) {
			t.Fatalf("lost %#x across growth", i*64)
		}
	}
	for i := 0; i < n; i++ {
		if !set.Take(mem.Addr(i * 64)) {
			t.Fatalf("Take(%#x) failed on drain", i*64)
		}
	}
	if set.Len() != 0 {
		t.Fatalf("Len() = %d after full drain", set.Len())
	}
}

func TestMSHRTableMatchesMapReference(t *testing.T) {
	rng := sim.NewRand(7)
	pool := addrPool(300)
	// Distinct value identities so a chain break that returns the wrong
	// entry (not just a missing one) is caught.
	vals := make(map[mem.Addr]*MSHREntry, len(pool))
	for _, a := range pool {
		vals[a] = &MSHREntry{Block: a}
	}
	tab := newAddrTable[*MSHREntry]()
	ref := make(map[mem.Addr]*MSHREntry)
	for op := 0; op < 200000; op++ {
		a := pool[rng.Intn(len(pool))]
		switch rng.Intn(3) {
		case 0:
			tab.put(a, vals[a])
			ref[a] = vals[a]
		case 1:
			got, ok := tab.take(a)
			want, wantOK := ref[a]
			if got != want || ok != wantOK {
				t.Fatalf("op %d: take(%#x) = %p, %v; reference %p, %v", op, a, got, ok, want, wantOK)
			}
			delete(ref, a)
		default:
			got, ok := tab.get(a)
			want, wantOK := ref[a]
			if got != want || ok != wantOK {
				t.Fatalf("op %d: get(%#x) = %p, %v; reference %p, %v", op, a, got, ok, want, wantOK)
			}
		}
		if tab.len() != len(ref) {
			t.Fatalf("op %d: len() = %d, reference %d", op, tab.len(), len(ref))
		}
	}
}

func TestMSHRTableGrowth(t *testing.T) {
	tab := newAddrTable[*MSHREntry]()
	const n = 5000
	entries := make([]*MSHREntry, n)
	for i := range entries {
		a := mem.Addr(i * 64)
		entries[i] = &MSHREntry{Block: a}
		tab.put(a, entries[i])
	}
	for i, e := range entries {
		if got, _ := tab.get(mem.Addr(i * 64)); got != e {
			t.Fatalf("entry %d: get = %p, want %p", i, got, e)
		}
	}
	if tab.len() != n {
		t.Fatalf("len() = %d, want %d", tab.len(), n)
	}
}

// BenchmarkAddrSetMissPath measures the write-buffer shape: membership
// check, insert, later removal.  BenchmarkMapMissPath is the Go-map version
// it replaced, kept for comparison.
func BenchmarkAddrSetMissPath(b *testing.B) {
	pool := addrPool(64)
	set := NewAddrSet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := pool[i&63]
		if !set.Has(a) {
			set.Add(a)
		}
		if i&7 == 7 {
			set.Take(pool[(i-4)&63])
		}
	}
}

func BenchmarkMapMissPath(b *testing.B) {
	pool := addrPool(64)
	set := make(map[mem.Addr]struct{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := pool[i&63]
		if _, ok := set[a]; !ok {
			set[a] = struct{}{}
		}
		if i&7 == 7 {
			delete(set, pool[(i-4)&63])
		}
	}
}
