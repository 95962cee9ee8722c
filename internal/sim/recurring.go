package sim

// PeriodicFunc is invoked on every firing of a recurring event.  Returning
// false stops the event.
type PeriodicFunc func(now Cycle) bool

// Recurring is a first-class periodic event: an ordinary argument event
// (fireRecurring with the Recurring as its argument) that reschedules
// itself one period ahead after each callback returns.  Each firing borrows
// a pooled node, so periodic services (decay global ticks, the thermal
// power-trace sampler) cost no allocations.
type Recurring struct {
	eng     *Engine
	period  Cycle
	fn      PeriodicFunc
	stopped bool
	// Fired counts how many times the callback has run.
	Fired uint64
}

// ScheduleRecurring registers fn to run every period cycles, first firing
// one period from now.  A period of zero panics: it would livelock the
// engine.
func (e *Engine) ScheduleRecurring(period Cycle, fn PeriodicFunc) *Recurring {
	if period == 0 {
		panic("sim: recurring period must be non-zero")
	}
	if fn == nil {
		panic("sim: ScheduleRecurring called with nil PeriodicFunc")
	}
	r := &Recurring{eng: e, period: period, fn: fn}
	e.ScheduleArg(period, fireRecurring, r)
	return r
}

// fireRecurring runs one firing and queues the next behind everything the
// callback scheduled.  A stopped event's queued firing is a no-op that
// schedules nothing, so the event leaves the queue.
func fireRecurring(arg any) {
	r := arg.(*Recurring)
	if r.stopped {
		return
	}
	r.Fired++
	if !r.fn(r.eng.now) {
		r.stopped = true
		return
	}
	r.eng.ScheduleArg(r.period, fireRecurring, r)
}

// Stop prevents any further firings.  The queued firing still dispatches,
// as a no-op, when its cycle is reached.
func (r *Recurring) Stop() { r.stopped = true }

// Stopped reports whether Stop has been called or the callback returned
// false.
func (r *Recurring) Stopped() bool { return r.stopped }
