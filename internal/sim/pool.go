package sim

// Pool keeps the request records of one memory-hierarchy component (bus
// completions, load requests, MSHR entries and waiters, L2 retry and
// upgrade continuations) for reuse, so a steady-state miss path allocates
// nothing.  The zero Pool is empty and ready to use; a component's Init
// keeps its Pool, as it keeps its arrays, so a rebuilt system reuses the
// records of the run before.  A Pool is not safe for concurrent use.
type Pool[T any] struct {
	free []*T
}

// Get returns a zero record: the one most recently Put, or a new one.
func (p *Pool[T]) Get() *T {
	n := len(p.free)
	if n == 0 {
		return new(T)
	}
	r := p.free[n-1]
	p.free = p.free[:n-1]
	return r
}

// Put zeroes r, dropping what it references, and keeps it for a later Get.
func (p *Pool[T]) Put(r *T) {
	var zero T
	*r = zero
	p.free = append(p.free, r)
}
