package sim

import "testing"

type poolRecord struct {
	n    int
	fn   func()
	next *poolRecord
}

// TestPoolAllocationFree guards the record pool every memory-hierarchy
// component keeps: a record Get returns after a Put is zeroed, whatever it
// held, and a steady Get/Put cycle allocates nothing once the pool is warm.
func TestPoolAllocationFree(t *testing.T) {
	var p Pool[poolRecord]
	r := p.Get()
	if r.n != 0 || r.fn != nil || r.next != nil {
		t.Fatalf("new record %+v, want zero", *r)
	}
	r.n, r.fn, r.next = 7, func() {}, r
	p.Put(r)
	if got := p.Get(); got != r || got.n != 0 || got.fn != nil || got.next != nil {
		t.Fatalf("Get after Put returned %p %+v, want the kept record %p zeroed", got, *got, r)
	}

	held := make([]*poolRecord, 8)
	round := func() {
		for i := range held {
			held[i] = p.Get()
			held[i].n = i
		}
		for _, h := range held {
			p.Put(h)
		}
	}
	round() // grows the free list to 8 records
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("steady-state Get/Put allocates %.1f times per round, want 0", allocs)
	}
}
