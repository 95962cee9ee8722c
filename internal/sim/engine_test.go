package sim

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("new engine at cycle %d, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("new engine has %d pending events, want 0", e.Pending())
	}
}

func TestScheduleAndRunOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(10, func() { order = append(order, 2) })
	e.Schedule(5, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 3) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if e.Now() != 20 {
		t.Fatalf("clock at %d after run, want 20", e.Now())
	}
}

func TestSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(7, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events not FIFO: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Cycle
	e.Schedule(1, func() {
		hits = append(hits, e.Now())
		e.Schedule(4, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 5 {
		t.Fatalf("nested scheduling produced %v, want [1 5]", hits)
	}
}

func TestZeroDelayRunsSameCycle(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(3, func() {
		e.Schedule(0, func() {
			ran = true
			if e.Now() != 3 {
				t.Errorf("zero-delay event ran at %d, want 3", e.Now())
			}
		})
	})
	e.Run()
	if !ran {
		t.Fatal("zero-delay event did not run")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var ran []Cycle
	for _, c := range []Cycle{2, 4, 6, 8} {
		c := c
		e.ScheduleAt(c, func() { ran = append(ran, c) })
	}
	e.RunUntil(5)
	if len(ran) != 2 {
		t.Fatalf("RunUntil(5) ran %d events, want 2", len(ran))
	}
	if e.Now() != 5 {
		t.Fatalf("clock at %d after RunUntil(5), want 5", e.Now())
	}
	e.Run()
	if len(ran) != 4 {
		t.Fatalf("remaining events not run: %v", ran)
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.ScheduleAt(3, func() {})
}

func TestNilEventPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("nil event did not panic")
		}
	}()
	e.Schedule(1, nil)
}

func TestAdvance(t *testing.T) {
	e := NewEngine()
	e.Advance(100)
	if e.Now() != 100 {
		t.Fatalf("Advance moved clock to %d, want 100", e.Now())
	}
	e.Schedule(10, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("Advance past pending events did not panic")
		}
	}()
	e.Advance(50)
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

// The ticker tests drive the engine's recurring event: first firing one
// period from now, Stop/Stopped, and the zero-period panic.
func TestTickerFiresPeriodically(t *testing.T) {
	e := NewEngine()
	var times []Cycle
	e.ScheduleRecurring(10, func(now Cycle) bool {
		times = append(times, now)
		return len(times) < 5
	})
	e.Run()
	want := []Cycle{10, 20, 30, 40, 50}
	if len(times) != len(want) {
		t.Fatalf("ticker fired %d times, want %d", len(times), len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("ticker firing times %v, want %v", times, want)
		}
	}
}

func TestTickerStop(t *testing.T) {
	e := NewEngine()
	count := 0
	tk := e.ScheduleRecurring(5, func(Cycle) bool {
		count++
		return true
	})
	e.RunUntil(23)
	tk.Stop()
	e.RunUntil(1000)
	e.Run()
	if count != 4 {
		t.Fatalf("ticker fired %d times before stop, want 4", count)
	}
	if !tk.Stopped() {
		t.Fatal("ticker does not report stopped")
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("zero-period ticker did not panic")
		}
	}()
	e.ScheduleRecurring(0, func(Cycle) bool { return true })
}

// Property: events always execute in non-decreasing cycle order regardless of
// the insertion order of their delays.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		var executed []Cycle
		for _, d := range delays {
			d := Cycle(d)
			e.Schedule(d, func() { executed = append(executed, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(executed); i++ {
			if executed[i] < executed[i-1] {
				return false
			}
		}
		return len(executed) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestInitMatchesNewEngine leaves an engine mid-run — near, same-cycle and
// far events queued, a recurring event live, counters non-zero — rebuilds
// it with Init, and checks it then runs a schedule exactly as a new engine
// does: same dispatch order, cycles and counters.
func TestInitMatchesNewEngine(t *testing.T) {
	run := func(e *Engine) []Cycle {
		var order []Cycle
		var rec *Recurring
		rec = e.ScheduleRecurring(3*wheelSize/2, func(now Cycle) bool {
			order = append(order, now|1<<62)
			return rec.Fired < 5
		})
		for i := Cycle(0); i < 200; i++ {
			e.ScheduleArg(i*37%(3*wheelSize), func(a any) { order = append(order, e.Now()<<8|a.(Cycle)) }, i&0xFF)
		}
		e.Run()
		return append(order, e.Now(), Cycle(e.Executed), Cycle(e.FarEvents))
	}
	used := NewEngine()
	for i := Cycle(0); i < 500; i++ {
		used.Schedule(i%7, func() {})
		used.ScheduleAt(4*wheelSize+i, func() {})
	}
	used.ScheduleRecurring(5, func(Cycle) bool { return true })
	used.RunUntil(wheelSize)
	if used.Pending() == 0 {
		t.Fatal("fixture broken: nothing left queued")
	}
	used.Init()
	if used.Now() != 0 || used.Pending() != 0 || used.Executed != 0 || used.FarEvents != 0 {
		t.Fatalf("Init left now=%d pending=%d executed=%d far=%d", used.Now(), used.Pending(), used.Executed, used.FarEvents)
	}
	want, got := run(NewEngine()), run(used)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rebuilt engine ran differently:\n  got:  %v\n  want: %v", got, want)
	}
}
