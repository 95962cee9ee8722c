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
	// turnOffs records every (set, way) the technique asked to turn off.
	turnOffs [][2]int
	// deferTurnOff leaves the line untouched, simulating a transient line.
	deferTurnOff bool
}

func newMockController(eng *sim.Engine) *mockController {
	cfg := cache.Config{Name: "mockL2", SizeBytes: 16 * 1024, LineBytes: 64, Assoc: 4, LatencyCycles: 6}
	return &mockController{
		eng:    eng,
		arr:    cache.MustNew(cfg),
		states: make(map[[2]int]coherence.State),
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
	if m.deferTurnOff {
		return
	}
	m.arr.Invalidate(set, way)
	m.arr.PowerOff(set, way, m.eng.Now())
	m.states[[2]int{set, way}] = coherence.Invalid
}

// install places a block in the mock L2 with the given state, driving the
// technique hooks the way the real controller does.
func (m *mockController) install(t Technique, a mem.Addr, st coherence.State) (set, way int) {
	set, way, hit := m.arr.Lookup(a)
	if !hit {
		way = m.arr.Victim(set)
		m.arr.Install(a, set, way, m.eng.Now())
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

func TestNewValidation(t *testing.T) {
	if _, err := New(Spec{Kind: KindDecay}); err == nil {
		t.Fatal("decay without interval should be rejected")
	}
	if _, err := New(Spec{Kind: KindSelectiveDecay}); err == nil {
		t.Fatal("sel_decay without interval should be rejected")
	}
	if _, err := New(Spec{Kind: Kind(77)}); err == nil {
		t.Fatal("unknown kind should be rejected")
	}
	for _, s := range []Spec{
		{Kind: KindAlwaysOn},
		{Kind: KindProtocol},
		{Kind: KindDecay, DecayCycles: 1024},
		{Kind: KindSelectiveDecay, DecayCycles: 1024},
		{Kind: KindAdaptive, DecayCycles: 1024},
	} {
		tech, err := New(s)
		if err != nil || tech == nil {
			t.Fatalf("New(%+v) failed: %v", s, err)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on invalid spec")
		}
	}()
	MustNew(Spec{Kind: KindDecay})
}

func TestAlwaysOnPowersEverything(t *testing.T) {
	eng := sim.NewEngine()
	ctrl := newMockController(eng)
	tech := NewAlwaysOn()
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
	if tech.ExtraAccessLatency() != 0 || tech.HasDecayCounters() || tech.AreaOverhead() != 0 {
		t.Fatal("baseline overhead should be zero")
	}
	if tech.Name() != "baseline" {
		t.Fatal("baseline name wrong")
	}
}

func TestProtocolGatesOnInvalidation(t *testing.T) {
	eng := sim.NewEngine()
	ctrl := newMockController(eng)
	tech := NewProtocol()
	tech.Start(eng, ctrl)
	if ctrl.arr.PoweredLines() != 0 {
		t.Fatal("protocol technique should start fully gated")
	}
	set, way := ctrl.install(tech, 0x2000, coherence.Exclusive)
	if ctrl.arr.PoweredLines() != 1 {
		t.Fatal("filled line should be powered")
	}
	eng.Advance(100)
	tech.OnProtocolInvalidate(ctrl, set, way)
	if ctrl.arr.PoweredLines() != 0 {
		t.Fatal("protocol invalidation did not gate the line")
	}
	if tech.ExtraAccessLatency() != 0 {
		t.Fatal("protocol technique has no access penalty")
	}
	if tech.AreaOverhead() != 0.05 {
		t.Fatal("Gated-Vdd area overhead missing")
	}
	if tech.HasDecayCounters() {
		t.Fatal("protocol technique has no counters")
	}
}

func TestFixedDecayTurnsOffIdleLines(t *testing.T) {
	eng := sim.NewEngine()
	ctrl := newMockController(eng)
	tech := NewFixedDecay(1000)
	tech.Start(eng, ctrl)
	set, way := ctrl.install(tech, 0x3000, coherence.Exclusive)
	// After the full decay interval with no access the line must be off.
	eng.RunUntil(2000)
	if len(ctrl.turnOffs) == 0 {
		t.Fatal("idle line never requested turn-off")
	}
	if ctrl.arr.Line(set, way).Powered {
		t.Fatal("idle line still powered after decay interval")
	}
	if tech.ExtraAccessLatency() != 1 || !tech.HasDecayCounters() {
		t.Fatal("decay overheads not reported")
	}
	if tech.DecayCycles() != 1000 {
		t.Fatal("DecayCycles accessor wrong")
	}
}

func TestFixedDecayAccessResetsCounter(t *testing.T) {
	eng := sim.NewEngine()
	ctrl := newMockController(eng)
	tech := NewFixedDecay(1000)
	tech.Start(eng, ctrl)
	set, way := ctrl.install(tech, 0x4000, coherence.Exclusive)
	// Touch the line every 400 cycles: it must never decay even after many
	// intervals.
	for i := 1; i <= 10; i++ {
		eng.RunUntil(sim.Cycle(i * 400))
		tech.OnHit(ctrl, set, way, coherence.Exclusive)
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
	tech := NewFixedDecay(1000)
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
	tech := NewSelectiveDecay(1000)
	tech.Start(eng, ctrl)
	_, _ = ctrl.install(tech, 0x6000, coherence.Modified)
	setE, wayE := ctrl.install(tech, 0x7000, coherence.Exclusive)
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
	if tech.DisarmedTransitions.Value() != 0 && tech.ArmedTransitions.Value() == 0 {
		t.Fatal("arming statistics inconsistent")
	}
}

func TestSelectiveDecayRearmsOnStateChange(t *testing.T) {
	eng := sim.NewEngine()
	ctrl := newMockController(eng)
	tech := NewSelectiveDecay(1000)
	tech.Start(eng, ctrl)
	set, way := ctrl.install(tech, 0x8000, coherence.Modified)
	if ctrl.arr.Line(set, way).DecayArmed {
		t.Fatal("modified fill should not arm decay")
	}
	// Remote BusRd downgrades M -> S: decay must arm.
	ctrl.states[[2]int{set, way}] = coherence.Shared
	tech.OnStateChange(ctrl, set, way, coherence.Modified, coherence.Shared)
	if !ctrl.arr.Line(set, way).DecayArmed {
		t.Fatal("downgrade to Shared did not arm decay")
	}
	// A store upgrades back to M: decay must disarm.
	ctrl.states[[2]int{set, way}] = coherence.Modified
	tech.OnStateChange(ctrl, set, way, coherence.Shared, coherence.Modified)
	if ctrl.arr.Line(set, way).DecayArmed {
		t.Fatal("upgrade to Modified did not disarm decay")
	}
	if tech.ArmedTransitions.Value() == 0 || tech.DisarmedTransitions.Value() == 0 {
		t.Fatal("transition counters not updated")
	}
}

func TestSelectiveDecayOccupationBetweenProtocolAndDecay(t *testing.T) {
	// Structural sanity check of the paper's ordering: with a mix of M and
	// E lines left idle, plain decay turns off more lines than selective
	// decay, which turns off more than protocol (which turns off none
	// without invalidations).
	run := func(tech Technique) int {
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
		off := 0
		ctrl.arr.ForEachLine(func(_, _ int, ln *cache.Line) {
			if ln.Valid == false && !ln.Powered {
				off++
			}
		})
		return len(ctrl.turnOffs)
	}
	offDecay := run(NewFixedDecay(1000))
	offSel := run(NewSelectiveDecay(1000))
	offProto := run(NewProtocol())
	if !(offDecay > offSel && offSel > offProto) {
		t.Fatalf("turn-off ordering violated: decay=%d sel=%d protocol=%d", offDecay, offSel, offProto)
	}
}

func TestAdaptiveModeDecaysAndAdapts(t *testing.T) {
	eng := sim.NewEngine()
	ctrl := newMockController(eng)
	tech := NewAdaptiveMode(1000)
	tech.Start(eng, ctrl)
	ctrl.install(tech, 0x9000, coherence.Exclusive)
	eng.RunUntil(3000)
	if tech.TurnOffRequests.Value() == 0 {
		t.Fatal("adaptive mode never requested a turn-off")
	}
	// With zero misses in every window the interval should shrink
	// (aggressive mode), which counts as adaptations.
	eng.RunUntil(40000)
	if tech.Adaptations.Value() == 0 {
		t.Fatal("adaptive mode never adapted its interval")
	}
	if tech.Name() == "" || !tech.HasDecayCounters() {
		t.Fatal("adaptive mode metadata wrong")
	}
}

func TestDeferredTurnOffLeavesLineOn(t *testing.T) {
	eng := sim.NewEngine()
	ctrl := newMockController(eng)
	ctrl.deferTurnOff = true
	tech := NewFixedDecay(1000)
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

func TestDecayCounterNeverExceedsLevels(t *testing.T) {
	eng := sim.NewEngine()
	ctrl := newMockController(eng)
	ctrl.deferTurnOff = true // keep the line alive so ticks keep running
	tech := NewFixedDecay(400)
	tech.Start(eng, ctrl)
	set, way := ctrl.install(tech, 0xb000, coherence.Exclusive)
	eng.RunUntil(10000)
	if c := ctrl.arr.Line(set, way).DecayCounter; c > counterLevels {
		t.Fatalf("decay counter %d exceeds saturation %d", c, counterLevels)
	}
}
