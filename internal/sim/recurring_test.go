package sim

// Recurring-event ordering pins.  Step and RunLimit dispatch recurring
// firings through the same code, so the drain-vs-Step cross-check in
// drain_test.go cannot see a change in when a firing is re-queued; these
// tests pin it directly, under both drivers, at a period inside the wheel
// horizon and at one beyond it (where firings travel through the far heap).

import (
	"testing"
	"unsafe"
)

var recurringPeriods = []struct {
	name   string
	period Cycle
}{
	{"near", 7},
	{"far", 3*wheelSize + 11},
}

// recurringDrivers execute every event at or before limit, one through the
// bucket-drain loop and one through Step.
var recurringDrivers = []struct {
	name string
	run  func(e *Engine, limit Cycle)
}{
	{"RunLimit", func(e *Engine, limit Cycle) { e.RunLimit(limit) }},
	{"Step", func(e *Engine, limit Cycle) {
		for {
			if t, ok := e.nextTime(); !ok || t > limit {
				return
			}
			e.Step()
		}
	}},
}

func TestEventNodeSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 48 {
		t.Fatalf("unsafe.Sizeof(event{}) = %d, want 48", n)
	}
}

// A firing is re-queued after its callback returns, so an event the
// callback schedules exactly one period ahead runs before the next firing
// of the same cycle.
func TestRecurringRefireQueuesBehindCallbackEvents(t *testing.T) {
	type mark struct {
		firing int // positive: the k-th firing; negative: the event it scheduled
		at     Cycle
	}
	for _, pc := range recurringPeriods {
		for _, d := range recurringDrivers {
			t.Run(pc.name+"/"+d.name, func(t *testing.T) {
				e := NewEngine()
				p := pc.period
				var log []mark
				var r *Recurring
				r = e.ScheduleRecurring(p, func(now Cycle) bool {
					k := int(r.Fired)
					log = append(log, mark{k, now})
					e.Schedule(p, func() { log = append(log, mark{-k, e.Now()}) })
					return k < 4
				})
				d.run(e, CycleMax)
				want := []mark{
					{1, p}, {-1, 2 * p}, {2, 2 * p}, {-2, 3 * p}, {3, 3 * p},
					{-3, 4 * p}, {4, 4 * p}, {-4, 5 * p},
				}
				if len(log) != len(want) {
					t.Fatalf("log %v, want %v", log, want)
				}
				for i := range want {
					if log[i] != want[i] {
						t.Fatalf("log %v, want %v", log, want)
					}
				}
				if r.Fired != 4 || !r.Stopped() {
					t.Fatalf("Fired = %d, Stopped = %v; want 4, true", r.Fired, r.Stopped())
				}
				if e.Executed != 8 || e.Pending() != 0 {
					t.Fatalf("Executed = %d, Pending = %d; want 8, 0", e.Executed, e.Pending())
				}
			})
		}
	}
}

// A callback that calls Stop and returns true leaves one firing queued; it
// dispatches as a no-op (one more Executed, no more Fired) and schedules
// nothing, so the queue empties.
func TestRecurringStopFromCallback(t *testing.T) {
	for _, pc := range recurringPeriods {
		for _, d := range recurringDrivers {
			t.Run(pc.name+"/"+d.name, func(t *testing.T) {
				e := NewEngine()
				p := pc.period
				var r *Recurring
				r = e.ScheduleRecurring(p, func(Cycle) bool {
					if r.Fired == 3 {
						r.Stop()
					}
					return true
				})
				d.run(e, 3*p)
				if r.Fired != 3 || e.Executed != 3 || e.Pending() != 1 {
					t.Fatalf("after the stopping firing: Fired = %d, Executed = %d, Pending = %d; want 3, 3, 1",
						r.Fired, e.Executed, e.Pending())
				}
				d.run(e, CycleMax)
				if r.Fired != 3 || e.Executed != 4 || e.Pending() != 0 {
					t.Fatalf("after the drain: Fired = %d, Executed = %d, Pending = %d; want 3, 4, 0",
						r.Fired, e.Executed, e.Pending())
				}
				if e.Now() != 4*p {
					t.Fatalf("no-op firing dispatched at %d, want %d", e.Now(), 4*p)
				}
			})
		}
	}
}

// Firing counts of recurring events that end in each of the three ways: a
// false return, Stop from a one-shot queued earlier for the cycle of a
// firing (the one-shot runs first, so that firing never happens), and Stop
// from a one-shot one cycle after a firing.
func TestRecurringFiredCounts(t *testing.T) {
	for _, pc := range recurringPeriods {
		for _, d := range recurringDrivers {
			t.Run(pc.name+"/"+d.name, func(t *testing.T) {
				e := NewEngine()
				p := pc.period
				var a *Recurring
				a = e.ScheduleRecurring(p, func(Cycle) bool { return a.Fired < 5 })
				b := e.ScheduleRecurring(p+3, func(Cycle) bool { return true })
				e.ScheduleAt(4*(p+3), b.Stop)
				c := e.ScheduleRecurring(2*p, func(Cycle) bool { return true })
				e.ScheduleAt(6*p+1, c.Stop)
				d.run(e, CycleMax)
				if a.Fired != 5 || b.Fired != 3 || c.Fired != 3 {
					t.Fatalf("Fired = %d, %d, %d; want 5, 3, 3", a.Fired, b.Fired, c.Fired)
				}
				// 11 firings, the two Stop one-shots and the no-op firings
				// of b (at 4(p+3)) and c (at 8p).
				if e.Executed != 15 || e.Pending() != 0 {
					t.Fatalf("Executed = %d, Pending = %d; want 15, 0", e.Executed, e.Pending())
				}
			})
		}
	}
}
