package decay

import (
	"fmt"
	"testing"

	"cmpleak/internal/cache"
	"cmpleak/internal/coherence"
	"cmpleak/internal/mem"
	"cmpleak/internal/sim"
)

// mockController implements Controller over a real cache array, tracking
// states in a side table and recording turn-off requests.  RequestTurnOff
// immediately performs the effect a real controller would have for a clean
// line: invalidate and gate.
type mockController struct {
	id     int
	eng    *sim.Engine
	arr    *cache.Cache
	states map[[2]int]coherence.State
	// turnOffs records every (set, way) the technique asked to turn off,
	// and turnOffAt the cycle of each request.
	turnOffs  [][2]int
	turnOffAt []sim.Cycle
	// deferTurnOff leaves the line untouched, simulating a transient line.
	deferTurnOff bool
	// pending marks blocks with a write pending in the L1 write buffer:
	// their turn-off requests are deferred (Table I).
	pending map[mem.Addr]bool
	// writeBacks sends a requested Modified line to TD, as Figure 2 does,
	// until its write-back completes; otherwise every request gates at once.
	writeBacks bool
	// deferred and tdEntries count the requests that deferred and that
	// started a write-back; tdFills and tdSnoops the history operations
	// that found a line in TD.
	deferred, tdEntries, tdFills, tdSnoops int
}

func newMockController(eng *sim.Engine) *mockController {
	return mockControllerSized(eng, 16*1024)
}

func mockControllerSized(eng *sim.Engine, sizeBytes uint64) *mockController {
	cfg := cache.Config{Name: "mockL2", SizeBytes: sizeBytes, LineBytes: 64, Assoc: 4, LatencyCycles: 6}
	return &mockController{
		eng:     eng,
		arr:     cache.MustNew(cfg),
		states:  make(map[[2]int]coherence.State),
		pending: make(map[mem.Addr]bool),
	}
}

func (m *mockController) ControllerID() int   { return m.id }
func (m *mockController) Array() *cache.Cache { return m.arr }
func (m *mockController) Now() sim.Cycle      { return m.eng.Now() }

func (m *mockController) LineState(set, way int) coherence.State {
	if st, ok := m.states[[2]int{set, way}]; ok {
		return st
	}
	return coherence.Invalid
}

func (m *mockController) RequestTurnOff(set, way int) {
	m.turnOffs = append(m.turnOffs, [2]int{set, way})
	m.turnOffAt = append(m.turnOffAt, m.eng.Now())
	key := [2]int{set, way}
	if m.deferTurnOff || m.pending[m.arr.Line(set, way).Tag] {
		m.deferred++
		return
	}
	if m.writeBacks && m.states[key] == coherence.Modified {
		m.states[key] = coherence.TransientDirty
		m.tdEntries++
		return
	}
	m.arr.Invalidate(set, way)
	m.arr.PowerOff(set, way, m.eng.Now())
	m.states[key] = coherence.Invalid
}

// install places a block in the mock L2 with the given state, driving the
// technique hooks the way the real controller does.
func (m *mockController) install(t Spec, a mem.Addr, st coherence.State) (set, way int) {
	set, way, hit := m.arr.Lookup(a)
	if !hit {
		way = m.arr.Victim(set)
		m.arr.Install(a, set, way)
		m.arr.PowerOn(set, way, m.eng.Now())
	}
	m.states[[2]int{set, way}] = st
	t.OnFill(m, set, way, st)
	return set, way
}

func TestSpecNames(t *testing.T) {
	cases := map[string]Spec{
		"baseline":      {Kind: KindAlwaysOn},
		"protocol":      {Kind: KindProtocol},
		"decay512K":     {Kind: KindDecay, DecayCycles: 512 * 1024},
		"decay64K":      {Kind: KindDecay, DecayCycles: 64 * 1024},
		"sel_decay128K": {Kind: KindSelectiveDecay, DecayCycles: 128 * 1024},
		"adaptive1M":    {Kind: KindAdaptive, DecayCycles: 1 << 20},
		"decay1000":     {Kind: KindDecay, DecayCycles: 1000},
		"sel_decay2M":   {Kind: KindSelectiveDecay, DecayCycles: 2048 * 1024},
		"sel_decay96K":  {Kind: KindSelectiveDecay, DecayCycles: 96 * 1024},
		"decay0":        {Kind: KindDecay},
		"decay1K":       {Kind: KindDecay, DecayCycles: 1024},
		"adaptive1536K": {Kind: KindAdaptive, DecayCycles: 1536 * 1024},
		"sel_decay3M":   {Kind: KindSelectiveDecay, DecayCycles: 3 << 20},
		"adaptive1000":  {Kind: KindAdaptive, DecayCycles: 1000},
		"decay1023":     {Kind: KindDecay, DecayCycles: 1023},
		"decay1025":     {Kind: KindDecay, DecayCycles: 1025},
	}
	for want, spec := range cases {
		if got := spec.Name(); got != want {
			t.Errorf("Spec%+v.Name() = %q, want %q", spec, got, want)
		}
		if got, old := spec.Name(), fmtSpecName(spec); got != old {
			t.Errorf("Spec%+v.Name() = %q, the fmt-based label is %q", spec, got, old)
		}
	}
}

// fmtSpecName is the fmt-based Spec.Name the strconv one replaced; the
// labels key the result cache and head every report row, so the two must
// agree byte for byte.
func fmtSpecName(s Spec) string {
	switch s.Kind {
	case KindDecay, KindSelectiveDecay, KindAdaptive:
		c := s.DecayCycles
		switch {
		case c >= 1<<20 && c%(1<<20) == 0:
			return fmt.Sprintf("%s%dM", s.Kind, c>>20)
		case c >= 1<<10 && c%(1<<10) == 0:
			return fmt.Sprintf("%s%dK", s.Kind, c>>10)
		default:
			return fmt.Sprintf("%s%d", s.Kind, c)
		}
	default:
		return s.Kind.String()
	}
}

func TestSpecNameAllocations(t *testing.T) {
	spec := Spec{Kind: KindSelectiveDecay, DecayCycles: 512 * 1024}
	if n := testing.AllocsPerRun(100, func() { _ = spec.Name() }); n > 1 {
		t.Fatalf("Spec.Name allocates %.0f times, want at most 1 (the returned string)", n)
	}
}

func TestKindString(t *testing.T) {
	if KindAlwaysOn.String() != "baseline" || KindProtocol.String() != "protocol" ||
		KindDecay.String() != "decay" || KindSelectiveDecay.String() != "sel_decay" ||
		KindAdaptive.String() != "adaptive" {
		t.Fatal("kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind should render")
	}
}

func TestSpecValidate(t *testing.T) {
	for _, s := range []Spec{{Kind: KindDecay}, {Kind: KindSelectiveDecay}, {Kind: KindAdaptive}, {Kind: Kind(77)}} {
		if err := s.Validate(); err == nil {
			t.Errorf("Spec%+v.Validate() accepted it", s)
		}
	}
	for _, s := range []Spec{
		{Kind: KindAlwaysOn},
		{Kind: KindProtocol},
		{Kind: KindDecay, DecayCycles: 1024},
		{Kind: KindSelectiveDecay, DecayCycles: 1024},
		{Kind: KindAdaptive, DecayCycles: 1024},
	} {
		if err := s.Validate(); err != nil {
			t.Errorf("Spec%+v.Validate(): %v", s, err)
		}
	}
}

// TestPolicyTable pins the per-kind overheads the energy model and the L2
// latency read: Gated-Vdd area, decay counters and the access penalty.
func TestPolicyTable(t *testing.T) {
	cases := []struct {
		kind          Kind
		gates, decays bool
		extraLatency  sim.Cycle
	}{
		{KindAlwaysOn, false, false, 0},
		{KindProtocol, true, false, 0},
		{KindDecay, true, true, 1},
		{KindSelectiveDecay, true, true, 1},
		{KindAdaptive, true, true, 1},
	}
	for _, c := range cases {
		s := Spec{Kind: c.kind, DecayCycles: 1024}
		if s.Gates() != c.gates || s.Decays() != c.decays || s.ExtraAccessLatency() != c.extraLatency {
			t.Errorf("%v: Gates=%v Decays=%v ExtraAccessLatency=%d, want %v %v %d", c.kind,
				s.Gates(), s.Decays(), s.ExtraAccessLatency(), c.gates, c.decays, c.extraLatency)
		}
	}
}

// TestArmingByKind pins the arming rule on fills and state changes: the
// decay family arms every stationary state except that Selective Decay arms
// only Shared and Exclusive, and resets the counter; the other kinds never
// touch the line (their banks carry no decay bookkeeping to touch).
func TestArmingByKind(t *testing.T) {
	states := []coherence.State{coherence.Shared, coherence.Exclusive, coherence.Modified}
	for _, kind := range []Kind{KindAlwaysOn, KindProtocol, KindDecay, KindSelectiveDecay, KindAdaptive} {
		spec := Spec{Kind: kind, DecayCycles: 1000}
		for _, st := range states {
			eng := sim.NewEngine()
			ctrl := newMockController(eng)
			spec.Start(eng, ctrl)
			set, way := ctrl.install(spec, 0x1000, coherence.Exclusive)
			eng.RunUntil(750) // three 250-cycle ticks
			if spec.Decays() && ctrl.arr.DecayCounter(set, way) != 3 {
				t.Fatalf("%v: counter %d after three ticks, want 3", kind, ctrl.arr.DecayCounter(set, way))
			}
			spec.OnStateChange(ctrl, set, way, st)
			ln := ctrl.arr.Line(set, way)
			want := kind == KindDecay || kind == KindAdaptive ||
				kind == KindSelectiveDecay && st != coherence.Modified
			if ln.DecayArmed != want {
				t.Errorf("%v into %v: armed=%v, want %v", kind, st, ln.DecayArmed, want)
			}
			if spec.Decays() && ctrl.arr.DecayCounter(set, way) != 0 {
				t.Errorf("%v into %v: counter %d after the transition", kind, st, ctrl.arr.DecayCounter(set, way))
			}
		}
	}
}

func TestAlwaysOnPowersEverything(t *testing.T) {
	eng := sim.NewEngine()
	ctrl := newMockController(eng)
	var tech Spec // the zero Spec is the baseline
	tech.Start(eng, ctrl)
	if ctrl.arr.PoweredLines() != ctrl.arr.Config().NumLines() {
		t.Fatal("baseline did not power the full array")
	}
	// Invalidation must not gate anything.
	set, way := ctrl.install(tech, 0x1000, coherence.Exclusive)
	tech.OnProtocolInvalidate(ctrl, set, way)
	if ctrl.arr.PoweredLines() != ctrl.arr.Config().NumLines() {
		t.Fatal("baseline gated a line on invalidation")
	}
	if tech.Name() != "baseline" {
		t.Fatal("baseline name wrong")
	}
	if eng.Pending() != 0 {
		t.Fatal("baseline scheduled events")
	}
}

func TestProtocolGatesOnInvalidation(t *testing.T) {
	eng := sim.NewEngine()
	ctrl := newMockController(eng)
	tech := Spec{Kind: KindProtocol}
	tech.Start(eng, ctrl)
	if ctrl.arr.PoweredLines() != 0 {
		t.Fatal("protocol technique should start fully gated")
	}
	set, way := ctrl.install(tech, 0x2000, coherence.Exclusive)
	if ctrl.arr.PoweredLines() != 1 {
		t.Fatal("filled line should be powered")
	}
	if ctrl.arr.Line(set, way).DecayArmed {
		t.Fatal("protocol technique armed decay")
	}
	eng.Advance(100)
	tech.OnProtocolInvalidate(ctrl, set, way)
	if ctrl.arr.PoweredLines() != 0 {
		t.Fatal("protocol invalidation did not gate the line")
	}
	if eng.Pending() != 0 {
		t.Fatal("protocol technique scheduled events")
	}
}

func TestFixedDecayTurnsOffIdleLines(t *testing.T) {
	eng := sim.NewEngine()
	ctrl := newMockController(eng)
	tech := Spec{Kind: KindDecay, DecayCycles: 1000}
	tech.Start(eng, ctrl)
	set, way := ctrl.install(tech, 0x3000, coherence.Exclusive)
	if !ctrl.arr.Line(set, way).DecayArmed {
		t.Fatal("fill did not arm decay")
	}
	// After the full decay interval with no access the line must be off.
	eng.RunUntil(2000)
	if len(ctrl.turnOffs) == 0 {
		t.Fatal("idle line never requested turn-off")
	}
	if ctrl.arr.Line(set, way).Powered {
		t.Fatal("idle line still powered after decay interval")
	}
	// Four ticks of 250 cycles saturate the counter.
	if ctrl.turnOffAt[0] != 1000 {
		t.Fatalf("first turn-off requested at cycle %d, want 1000", ctrl.turnOffAt[0])
	}
}

func TestFixedDecayAccessResetsCounter(t *testing.T) {
	eng := sim.NewEngine()
	ctrl := newMockController(eng)
	tech := Spec{Kind: KindDecay, DecayCycles: 1000}
	tech.Start(eng, ctrl)
	set, way := ctrl.install(tech, 0x4000, coherence.Exclusive)
	// Touch the line every 400 cycles: it must never decay even after many
	// intervals.
	for i := 1; i <= 10; i++ {
		eng.RunUntil(sim.Cycle(i * 400))
		tech.OnHit(ctrl, set, way)
	}
	if len(ctrl.turnOffs) != 0 {
		t.Fatal("frequently accessed line decayed")
	}
	if !ctrl.arr.Line(set, way).Powered {
		t.Fatal("accessed line was gated")
	}
}

func TestFixedDecaySkipsTransientLines(t *testing.T) {
	eng := sim.NewEngine()
	ctrl := newMockController(eng)
	tech := Spec{Kind: KindDecay, DecayCycles: 1000}
	tech.Start(eng, ctrl)
	set, way := ctrl.install(tech, 0x5000, coherence.TransientDirty)
	eng.RunUntil(3000)
	if len(ctrl.turnOffs) != 0 {
		t.Fatal("transient line received a turn-off request")
	}
	if !ctrl.arr.Line(set, way).Powered {
		t.Fatal("transient line was gated")
	}
}

func TestSelectiveDecayDoesNotDecayModified(t *testing.T) {
	eng := sim.NewEngine()
	ctrl := newMockController(eng)
	tech := Spec{Kind: KindSelectiveDecay, DecayCycles: 1000}
	tech.Start(eng, ctrl)
	setM, wayM := ctrl.install(tech, 0x6000, coherence.Modified)
	setE, wayE := ctrl.install(tech, 0x7000, coherence.Exclusive)
	if ctrl.arr.Line(setM, wayM).DecayArmed || !ctrl.arr.Line(setE, wayE).DecayArmed {
		t.Fatal("selective decay must arm the Exclusive fill and not the Modified one")
	}
	// The scan skips Modified lines even when armed: arming by hand and
	// resetting the counter makes the line due, so the tick must filter it.
	ctrl.arr.Line(setM, wayM).DecayArmed = true
	ctrl.arr.ResetDecay(setM, wayM)
	eng.RunUntil(3000)
	// Only the Exclusive line may decay.
	for _, sw := range ctrl.turnOffs {
		if sw != [2]int{setE, wayE} {
			t.Fatalf("selective decay turned off a non-S/E line at %v", sw)
		}
	}
	if len(ctrl.turnOffs) == 0 {
		t.Fatal("exclusive line never decayed")
	}
}

func TestSelectiveDecayRearmsOnStateChange(t *testing.T) {
	eng := sim.NewEngine()
	ctrl := newMockController(eng)
	tech := Spec{Kind: KindSelectiveDecay, DecayCycles: 1000}
	tech.Start(eng, ctrl)
	set, way := ctrl.install(tech, 0x8000, coherence.Modified)
	if ctrl.arr.Line(set, way).DecayArmed {
		t.Fatal("modified fill should not arm decay")
	}
	// Remote BusRd downgrades M -> S: decay must arm.
	ctrl.states[[2]int{set, way}] = coherence.Shared
	tech.OnStateChange(ctrl, set, way, coherence.Shared)
	if !ctrl.arr.Line(set, way).DecayArmed {
		t.Fatal("downgrade to Shared did not arm decay")
	}
	// A store upgrades back to M: decay must disarm.
	ctrl.states[[2]int{set, way}] = coherence.Modified
	tech.OnStateChange(ctrl, set, way, coherence.Modified)
	if ctrl.arr.Line(set, way).DecayArmed {
		t.Fatal("upgrade to Modified did not disarm decay")
	}
}

func TestSelectiveDecayOccupationBetweenProtocolAndDecay(t *testing.T) {
	// Structural sanity check of the paper's ordering: with a mix of M and
	// E lines left idle, plain decay turns off more lines than selective
	// decay, which turns off more than protocol (which turns off none
	// without invalidations).
	run := func(tech Spec) int {
		eng := sim.NewEngine()
		ctrl := newMockController(eng)
		tech.Start(eng, ctrl)
		for i := 0; i < 8; i++ {
			st := coherence.Exclusive
			if i%2 == 0 {
				st = coherence.Modified
			}
			ctrl.install(tech, mem.Addr(0x10000+i*64), st)
		}
		eng.RunUntil(4000)
		return len(ctrl.turnOffs)
	}
	offDecay := run(Spec{Kind: KindDecay, DecayCycles: 1000})
	offSel := run(Spec{Kind: KindSelectiveDecay, DecayCycles: 1000})
	offProto := run(Spec{Kind: KindProtocol})
	if !(offDecay > offSel && offSel > offProto) {
		t.Fatalf("turn-off ordering violated: decay=%d sel=%d protocol=%d", offDecay, offSel, offProto)
	}
}

// TestAdaptiveModeDecaysAndAdapts keeps one idle line resident (its
// turn-offs are deferred), so every global tick re-requests its turn-off and
// the spacing of the requests is the tick period: a quarter of the current
// interval.
func TestAdaptiveModeDecaysAndAdapts(t *testing.T) {
	gaps := func(missesPerTick uint64) (first, last sim.Cycle) {
		t.Helper()
		eng := sim.NewEngine()
		ctrl := newMockController(eng)
		ctrl.deferTurnOff = true
		tech := Spec{Kind: KindAdaptive, DecayCycles: 1000}
		tech.Start(eng, ctrl)
		ctrl.install(tech, 0x9000, coherence.Exclusive)
		for now := sim.Cycle(0); now < 60000; now += 50 {
			ctrl.arr.Misses.Add(missesPerTick)
			eng.RunUntil(now + 50)
		}
		at := ctrl.turnOffAt
		if len(at) < 3 {
			t.Fatalf("adaptive mode requested %d turn-offs, want a steady stream", len(at))
		}
		if at[0] != 1000 {
			t.Fatalf("first turn-off requested at cycle %d, want 1000", at[0])
		}
		return at[1] - at[0], at[len(at)-1] - at[len(at)-2]
	}
	// No misses: each window halves the interval down to initial/8 = 125,
	// a 31-cycle tick.
	if first, last := gaps(0); first != 250 || last != 31 {
		t.Fatalf("miss-free run: request spacing %d then %d, want 250 then 31", first, last)
	}
	// A high miss rate doubles it up to initial*8 = 8000, a 2000-cycle tick.
	if first, last := gaps(100); first != 250 || last != 2000 {
		t.Fatalf("miss-heavy run: request spacing %d then %d, want 250 then 2000", first, last)
	}
}

func TestDeferredTurnOffLeavesLineOn(t *testing.T) {
	eng := sim.NewEngine()
	ctrl := newMockController(eng)
	ctrl.deferTurnOff = true
	tech := Spec{Kind: KindDecay, DecayCycles: 1000}
	tech.Start(eng, ctrl)
	set, way := ctrl.install(tech, 0xa000, coherence.Exclusive)
	eng.RunUntil(5000)
	if !ctrl.arr.Line(set, way).Powered {
		t.Fatal("deferred turn-off should leave the line powered")
	}
	if len(ctrl.turnOffs) == 0 {
		t.Fatal("turn-off requests should still be recorded")
	}
}

// TestDecayCounterNeverExceedsLevels keeps an idle line resident for 100
// ticks: its counter saturates at cache.DecayLevels, and from the saturating
// tick on every tick requests its turn-off again.
func TestDecayCounterNeverExceedsLevels(t *testing.T) {
	eng := sim.NewEngine()
	ctrl := newMockController(eng)
	ctrl.deferTurnOff = true // keep the line alive so ticks keep running
	tech := Spec{Kind: KindDecay, DecayCycles: 400}
	tech.Start(eng, ctrl)
	set, way := ctrl.install(tech, 0xb000, coherence.Exclusive)
	eng.RunUntil(10000)
	// The tick is the engine's only event.
	if ticks := eng.Executed; ticks != 100 {
		t.Fatalf("%d ticks ran, want 100", ticks)
	}
	if c := ctrl.arr.DecayCounter(set, way); c != cache.DecayLevels {
		t.Fatalf("decay counter %d after 100 idle ticks, want saturation at %d", c, cache.DecayLevels)
	}
	if n := len(ctrl.turnOffs); n != 100-cache.DecayLevels+1 {
		t.Fatalf("%d turn-off requests, want one per tick from tick %d: %d", n, cache.DecayLevels, 100-cache.DecayLevels+1)
	}
}
