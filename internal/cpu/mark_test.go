package cpu

import (
	"slices"
	"testing"

	"cmpleak/internal/mem"
	"cmpleak/internal/sim"
	"cmpleak/internal/workload"
)

// hitLatency is the fake L1s' hit and store-acceptance latency.
const hitLatency = 2

// scriptL1 answers each access from seeded draws shared by every core's
// L1, as a shared L2 and bus make one core's latencies depend on the order
// of all cores' accesses: two in three complete hitLatency cycles after
// issue (a hit, or a store the write buffer takes at once), the rest after
// a random latency through done.  With marks set, such a fast completion is
// returned as its mark; without, it is an event scheduled at the same
// moment, so it sits at the same place in the schedule.  After a fast
// completion the L1 sometimes schedules a probe in the same cycle, which
// lands between that completion and the next one.
type scriptL1 struct {
	eng   *sim.Engine
	id    int
	rng   *sim.Rand
	marks bool
	log   *[]sample
	probe func()
}

// sample is one access or probe in dispatch order: who, when, and every
// core's retired instructions at that moment, as the power sampler reads
// them.
type sample struct {
	core  int // -1 for a probe
	at    sim.Cycle
	instr uint64
}

func (f *scriptL1) access(done func()) (sim.Mark, bool) {
	*f.log = append(*f.log, sample{core: f.id, at: f.eng.Now()})
	if f.rng.Intn(3) == 0 {
		f.eng.Schedule(sim.Cycle(3+f.rng.Intn(40)), done)
		return sim.Mark{}, false
	}
	var m sim.Mark
	if f.marks {
		m = f.eng.MarkAt(hitLatency)
	} else {
		f.eng.Schedule(hitLatency, done)
	}
	if f.rng.Intn(2) == 0 {
		f.eng.Schedule(hitLatency, f.probe)
	}
	return m, f.marks
}

func (f *scriptL1) Read(_ mem.Addr, done func()) (sim.Mark, bool)  { return f.access(done) }
func (f *scriptL1) Write(_ mem.Addr, done func()) (sim.Mark, bool) { return f.access(done) }

// coreOutcome is what the differential test compares per core.
type coreOutcome struct {
	stalls       uint64
	instructions uint64
	cycles       sim.Cycle
}

// runScripted runs two cores over one engine with a background event
// source firing every one or two cycles, and halts when both cores finish.
func runScripted(t *testing.T, seed uint64, marks bool) ([]sample, []coreOutcome, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	cfgRng := sim.NewRand(seed)
	cfg := Config{
		IssueWidth:           1 + cfgRng.Intn(4),
		MaxOutstandingLoads:  1 + cfgRng.Intn(3),
		MaxOutstandingStores: 1 + cfgRng.Intn(3),
	}
	const cores = 2
	cs := make([]*Core, cores)
	done := 0
	var log []sample
	l1Rng := sim.NewRand(seed + 500)
	probe := func() {
		s := sample{core: -1, at: eng.Now()}
		for _, c := range cs {
			s.instr += c.Instructions.Value()
		}
		log = append(log, s)
	}
	for i := range cores {
		rng := sim.NewRand(seed*16 + uint64(i) + 1)
		entries := make([]workload.Entry, 400)
		for j := range entries {
			e := workload.Entry{ComputeInstrs: rng.Intn(12), Addr: mem.Addr(rng.Intn(1 << 16))}
			if rng.Intn(4) > 0 {
				e.ComputeInstrs /= 4 // mostly short runs, so ops queue up
			}
			switch rng.Intn(5) {
			case 0:
			case 1, 2:
				e.Op = workload.Load
			default:
				e.Op = workload.Store
			}
			entries[j] = e
		}
		l1 := &scriptL1{eng: eng, id: i, rng: l1Rng, marks: marks, log: &log, probe: probe}
		c, err := New(i, eng, cfg, l1, &sliceStream{entries: entries})
		if err != nil {
			t.Fatal(err)
		}
		c.OnDone(func(int) {
			if done++; done == cores {
				eng.Halt()
			}
		})
		cs[i] = c
	}
	// The background draws from the L1s' source too, so an event of it
	// that runs before a core's access in one run and after it in the other
	// changes every later latency.  Its echoes land on hit-completion
	// cycles and in the cycle being drained.
	bgRng := sim.NewRand(seed + 1000)
	draw := func() { l1Rng.Intn(2) }
	echo := func() {
		draw()
		if bgRng.Intn(2) == 0 {
			eng.Schedule(0, draw)
		}
	}
	var background func()
	background = func() {
		draw()
		if bgRng.Intn(2) == 0 {
			eng.Schedule(hitLatency, echo)
		}
		if bgRng.Intn(4) == 0 {
			eng.Schedule(0, echo)
		}
		eng.Schedule(sim.Cycle(1+bgRng.Intn(2)), background)
	}
	eng.Schedule(0, background)
	for _, c := range cs {
		c.Start()
	}
	if eng.RunLimit(1_000_000) != sim.RunHalted {
		t.Fatalf("seed %d: the cores did not finish", seed)
	}
	out := make([]coreOutcome, cores)
	for i, c := range cs {
		out[i] = coreOutcome{
			stalls:       c.StallCycles.Value(),
			instructions: c.Instructions.Value(),
			cycles:       c.Cycles(),
		}
	}
	return log, out, eng
}

// Cores fed completion marks issue every access in the same order and at
// the same cycles, retire instructions at the same points of the schedule,
// and stall and finish at the same cycles, as cores whose L1s schedule each
// of those completions as an event at the same moment.
func TestMarkCompletionsMatchEvents(t *testing.T) {
	stalled, saved := false, false
	for seed := uint64(1); seed <= 40; seed++ {
		refLog, ref, refEng := runScripted(t, seed, false)
		gotLog, got, gotEng := runScripted(t, seed, true)
		if !slices.Equal(gotLog, refLog) {
			t.Fatalf("seed %d: accesses and probes differ (%d vs %d)", seed, len(gotLog), len(refLog))
		}
		for i := range ref {
			r, g := ref[i], got[i]
			if g.stalls != r.stalls || g.instructions != r.instructions || g.cycles != r.cycles {
				t.Fatalf("seed %d core %d: stalls/instructions/cycles %d/%d/%d, want %d/%d/%d",
					seed, i, g.stalls, g.instructions, g.cycles, r.stalls, r.instructions, r.cycles)
			}
			stalled = stalled || r.stalls > 0
		}
		if gotEng.Now() != refEng.Now() {
			t.Fatalf("seed %d: run halted at cycle %d, want %d", seed, gotEng.Now(), refEng.Now())
		}
		saved = saved || gotEng.Executed < refEng.Executed
	}
	if !stalled || !saved {
		t.Fatalf("fixture broken: a core stalled %v, marks saved events %v", stalled, saved)
	}
}

// hitL1 completes every access as a hit, returning its mark.
type hitL1 struct{ eng *sim.Engine }

func (f hitL1) Read(mem.Addr, func()) (sim.Mark, bool)  { return f.eng.MarkAt(hitLatency), true }
func (f hitL1) Write(mem.Addr, func()) (sim.Mark, bool) { return f.eng.MarkAt(hitLatency), true }

// memOps is an endless stream of back-to-back loads and stores.
type memOps struct{}

func (memOps) NextBatch(buf []workload.Entry) int {
	for i := range buf {
		buf[i] = workload.Entry{Op: workload.Load + workload.OpKind(i&1), Addr: mem.Addr(i * 64)}
	}
	return len(buf)
}

// TestBlockedOnHitsAllocationFree guards the scheduling path of a core
// that stalls on completions held as marks: with one outstanding load and
// one store allowed, every access blocks the core until its hit completes,
// and running that allocates nothing.
func TestBlockedOnHitsAllocationFree(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Config{IssueWidth: 4, MaxOutstandingLoads: 1, MaxOutstandingStores: 1}
	c, err := New(0, eng, cfg, hitL1{eng}, memOps{})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	run := func() { eng.RunUntil(eng.Now() + 64) }
	run() // warm the event pool
	issued := c.LoadsIssued.Value()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("a core blocking on hit completions allocates %.1f objects per 64 cycles, want 0", allocs)
	}
	if c.LoadsIssued.Value() == issued || c.StallCycles.Value() == 0 {
		t.Fatalf("fixture broken: %d loads issued, %d stall cycles", c.LoadsIssued.Value()-issued, c.StallCycles.Value())
	}
}
