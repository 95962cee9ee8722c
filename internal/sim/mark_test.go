package sim

import (
	"slices"
	"testing"
)

// markWeb is a self-spawning event web run twice over the same seed.  The
// reference run schedules every event with ScheduleArg.  The marked run
// takes only a mark (MarkAt) for some events and places them later with
// ScheduleArgAtMark, at a random later dispatch or at the last one before
// they are due; ghosts it never places, as a completion nobody waits for.
// Each event decides its children from a hash of its id, so both runs spawn
// the same web as long as they dispatch in the same order.
type markWeb struct {
	t      *testing.T
	eng    *Engine
	seed   uint64
	marked bool
	// ref is the reference run's dispatch order, known to the marked run.
	ref    map[int]refPos
	log    []int
	ghosts map[int]bool
	nextID int
	budget int
	held   []heldMark
	fireFn ArgFunc
}

// refPos is an event's place in the reference run's dispatch order, with
// and without the ghosts.
type refPos struct{ all, placed int }

// heldMark is a mark the marked run has not placed yet.
type heldMark struct {
	id int
	m  Mark
}

func webHash(seed, id, salt uint64) uint64 {
	x := seed*0x9E3779B97F4A7C15 + id*0xBF58476D1CE4E5B9 + salt*0x94D049BB133111EB + 1
	x ^= x >> 31
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 32
	return x
}

// childDelay draws near delays (most of them, same-cycle ones included),
// mid-horizon ones and far ones past the wheel.
func childDelay(h uint64) Cycle {
	switch h % 10 {
	case 0, 1:
		return 0
	case 2:
		return Cycle(wheelSize + h>>8%(3*wheelSize))
	case 3:
		return Cycle(100 + h>>8%(wheelSize-100))
	default:
		return Cycle(1 + h>>8%4)
	}
}

func newMarkWeb(t *testing.T, seed uint64, ref map[int]refPos) *markWeb {
	w := &markWeb{t: t, eng: NewEngine(), seed: seed, marked: ref != nil, ref: ref,
		ghosts: map[int]bool{}, budget: 3000}
	w.fireFn = func(arg any) { w.fire(arg.(int)) }
	return w
}

// spawnChildren adds the children of parent (the roots when parent < 0).
func (w *markWeb) spawnChildren(parent int) {
	n := 8
	if parent >= 0 {
		n = 1 + int(webHash(w.seed, uint64(parent), 0)%3)
	}
	for c := 0; c < n && w.budget > 0; c++ {
		h := webHash(w.seed, uint64(parent+1), uint64(c)+1)
		id := w.nextID
		w.nextID++
		w.budget--
		delay := childDelay(h)
		kind := h >> 40 % 8 // 0-4 scheduled, 5-6 marked, 7 a ghost (not a root)
		if kind == 7 && parent >= 0 {
			w.ghosts[id] = true
		}
		if !w.marked || kind < 5 {
			w.eng.ScheduleArg(delay, w.fireFn, id)
			continue
		}
		w.held = append(w.held, heldMark{id: id, m: w.eng.MarkAt(delay)})
	}
}

func (w *markWeb) fire(id int) {
	w.log = append(w.log, id)
	if w.ghosts[id] {
		return // a ghost never runs in the marked run, so it spawns nothing
	}
	if w.marked {
		w.checkHeld(id)
	}
	w.spawnChildren(id)
	if w.marked {
		w.placeHeld(id)
	}
}

// checkHeld checks Passed, while event id dispatches, for every held mark
// against the reference order, and drops the ghosts that have passed.
func (w *markWeb) checkHeld(id int) {
	cur, ok := w.ref[id]
	if !ok {
		w.t.Fatalf("seed %d: event %d did not run in the reference", w.seed, id)
	}
	kept := w.held[:0]
	for _, h := range w.held {
		pos, ok := w.ref[h.id]
		if !ok {
			w.t.Fatalf("seed %d: marked event %d did not run in the reference", w.seed, h.id)
		}
		if got, want := w.eng.Passed(h.m), pos.all < cur.all; got != want {
			w.t.Fatalf("seed %d: Passed(%+v) of event %d at event %d = %v, want %v", w.seed, h.m, h.id, id, got, want)
		}
		if w.ghosts[h.id] && pos.all < cur.all {
			continue
		}
		kept = append(kept, h)
	}
	w.held = kept
}

// placeHeld schedules some held marks at random, and the one the reference
// runs next (ghosts aside), which is the last moment it can be placed.
func (w *markWeb) placeHeld(id int) {
	cur := w.ref[id].placed
	kept := w.held[:0]
	for _, h := range w.held {
		if !w.ghosts[h.id] && (w.ref[h.id].placed == cur+1 || webHash(w.seed, uint64(h.id), uint64(id)+7)%4 == 0) {
			w.eng.ScheduleArgAtMark(h.m, w.fireFn, h.id)
			continue
		}
		kept = append(kept, h)
	}
	w.held = kept
}

// An event placed with ScheduleArgAtMark(MarkAt(d)) runs exactly where one
// scheduled with ScheduleArg(d) at the moment the mark was taken runs, near,
// far or in the cycle being drained, and Passed agrees with that order.
func TestPropertyScheduleAtMarkMatchesScheduleArg(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		ref := newMarkWeb(t, seed, nil)
		ref.spawnChildren(-1)
		ref.eng.Run()
		pos := make(map[int]refPos, len(ref.log))
		var want []int
		for i, id := range ref.log {
			pos[id] = refPos{all: i, placed: len(want)}
			if !ref.ghosts[id] {
				want = append(want, id)
			}
		}

		got := newMarkWeb(t, seed, pos)
		got.spawnChildren(-1)
		// A root the reference runs first can only be placed now.
		for _, h := range got.held {
			if !got.ghosts[h.id] && pos[h.id].placed == 0 {
				got.eng.ScheduleArgAtMark(h.m, got.fireFn, h.id)
			}
		}
		got.held = slices.DeleteFunc(got.held, func(h heldMark) bool {
			return !got.ghosts[h.id] && pos[h.id].placed == 0
		})
		got.eng.Run()
		if !slices.Equal(got.log, want) {
			t.Fatalf("seed %d: marked run dispatched %d events, reference %d (ghosts aside); orders differ",
				seed, len(got.log), len(want))
		}
		if len(ref.log) < 1000 {
			t.Fatalf("seed %d: fixture broken: only %d events", seed, len(ref.log))
		}
	}
}

func TestScheduleAtMarkRefusesPassedMarks(t *testing.T) {
	e := NewEngine()
	early := e.MarkAt(0)
	e.Schedule(0, func() {
		if !e.Passed(early) {
			t.Error("a mark taken before the dispatching event was scheduled has not passed")
		}
	})
	e.Run()
	for name, m := range map[string]Mark{
		"passed":      early,
		"never taken": {When: e.Now() + 5, Seq: early.Seq + 100},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ScheduleArgAtMark of a %s mark did not panic", name)
				}
			}()
			e.ScheduleArgAtMark(m, func(any) {}, nil)
		}()
	}
}

// Outside a dispatch, a mark in the current cycle has passed only if an
// event after it in that cycle has run: a clock moved to a cycle by
// RunUntil has run nothing there yet.
func TestPassedAfterClockAdvance(t *testing.T) {
	e := NewEngine()
	m := e.MarkAt(5)
	e.Schedule(1, func() {})
	e.RunUntil(5)
	if e.Now() != 5 || e.Passed(m) {
		t.Fatalf("at cycle %d Passed(%+v) = %v, want cycle 5 and false", e.Now(), m, e.Passed(m))
	}
	ran := false
	e.ScheduleArgAtMark(m, func(any) { ran = true }, nil)
	e.Run()
	if !ran {
		t.Fatal("the event placed at the mark never ran")
	}
}
