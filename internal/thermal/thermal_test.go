package thermal

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// plan4 is the paper's 4-core floorplan used by most tests.
var plan4 = Floorplan{Cores: 4}

func TestFloorplanLayout(t *testing.T) {
	for _, cores := range []int{1, 2, 4, 8} {
		f := Floorplan{Cores: cores}
		if err := f.Validate(); err != nil {
			t.Fatalf("floorplan %d cores invalid: %v", cores, err)
		}
		if got, want := f.NumBlocks(), 2*cores+1; got != want {
			t.Fatalf("%d cores: NumBlocks %d, want %d", cores, got, want)
		}
		seen := map[Block]bool{}
		for i := 0; i < cores; i++ {
			for _, b := range []Block{f.CoreBlock(i), f.L2Block(i)} {
				if int(b) < 0 || int(b) >= f.NumBlocks() || seen[b] {
					t.Fatalf("%d cores: block %d out of range or duplicated", cores, b)
				}
				seen[b] = true
			}
		}
		if seen[f.Bus()] || int(f.Bus()) != f.NumBlocks()-1 {
			t.Fatalf("%d cores: bus block misplaced", cores)
		}
	}
	if err := (Floorplan{Cores: 0}).Validate(); err == nil {
		t.Fatal("0-core floorplan should be invalid")
	}
	if err := (Floorplan{Cores: MaxCores + 1}).Validate(); err == nil {
		t.Fatal("oversized floorplan should be invalid")
	}
}

func TestBlockNames(t *testing.T) {
	f := plan4
	if f.Name(f.CoreBlock(0)) != "core0" || f.Name(f.CoreBlock(3)) != "core3" {
		t.Fatal("core block names wrong")
	}
	if f.Name(f.L2Block(0)) != "l2bank0" || f.Name(f.L2Block(3)) != "l2bank3" {
		t.Fatal("L2 block names wrong")
	}
	if f.Name(f.Bus()) != "bus" {
		t.Fatal("bus block name wrong")
	}
	if f.Name(Block(99)) == "" {
		t.Fatal("unknown block should render")
	}
	// The 4-core layout is the paper's Figure 1 ordering: cores 0-3, banks
	// 4-7, bus 8 (the layout PR 1-4 results were recorded under).
	if f.CoreBlock(2) != Block(2) || f.L2Block(1) != Block(5) || f.Bus() != Block(8) {
		t.Fatal("block index helpers wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.CoreRtoAmbient = 0 },
		func(c *Config) { c.L2Capacitance = 0 },
		func(c *Config) { c.LateralR = 0 },
		func(c *Config) { c.MaxStepSeconds = 0 },
	}
	for i, mutate := range mutations {
		c := DefaultConfig()
		mutate(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d should be invalid", i)
		}
	}
	if _, err := New(Config{}, 4); err == nil {
		t.Fatal("New accepted an empty config")
	}
	if _, err := New(DefaultConfig(), 0); err == nil {
		t.Fatal("New accepted a 0-core floorplan")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(Config{}, 4)
}

func TestInitialTemperatures(t *testing.T) {
	m := MustNew(DefaultConfig(), 4)
	for b := Block(0); int(b) < m.NumBlocks(); b++ {
		if m.Temp(b) != DefaultConfig().InitialC {
			t.Fatalf("block %v starts at %v, want %v", b, m.Temp(b), DefaultConfig().InitialC)
		}
	}
}

func TestZeroPowerCoolsTowardAmbient(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitialC = 90
	m := MustNew(cfg, 4)
	none := make([]float64, m.NumBlocks())
	m.Step(none, 5.0)
	for b := Block(0); int(b) < m.NumBlocks(); b++ {
		if m.Temp(b) > 46 {
			t.Fatalf("block %v did not cool toward ambient: %v°C", b, m.Temp(b))
		}
		if m.Temp(b) < cfg.AmbientC-1 {
			t.Fatalf("block %v cooled below ambient: %v°C", b, m.Temp(b))
		}
	}
}

func TestPowerHeatsBlocks(t *testing.T) {
	m := MustNew(DefaultConfig(), 4)
	p := make([]float64, m.NumBlocks())
	p[m.CoreBlock(0)] = 10
	m.Step(p, 2.0)
	if m.Temp(m.CoreBlock(0)) <= DefaultConfig().InitialC {
		t.Fatal("powered core did not heat up")
	}
	// Lateral coupling should warm the neighbouring L2 bank above the
	// unpowered far bank.
	if m.Temp(m.L2Block(0)) <= m.Temp(m.L2Block(3)) {
		t.Fatalf("lateral coupling missing: near bank %v°C, far bank %v°C",
			m.Temp(m.L2Block(0)), m.Temp(m.L2Block(3)))
	}
	if m.MaxTemp() != m.Temp(m.CoreBlock(0)) {
		t.Fatal("hottest block should be the powered core")
	}
}

func TestStepRejectsWrongPowerMapLength(t *testing.T) {
	m := MustNew(DefaultConfig(), 4)
	defer func() {
		if recover() == nil {
			t.Fatal("Step accepted a power map of the wrong length")
		}
	}()
	m.Step(make([]float64, 3), 1.0)
}

func TestSteadyStateMatchesAnalytic(t *testing.T) {
	// With lateral coupling to unpowered blocks the steady temperature of a
	// single powered block sits between ambient and ambient + P*R.
	cfg := DefaultConfig()
	m := MustNew(cfg, 4)
	p := make([]float64, m.NumBlocks())
	p[m.CoreBlock(1)] = 8
	ss := m.SteadyState(p, 0.01)
	upper := cfg.AmbientC + 8*cfg.CoreRtoAmbient + 1
	if ss[m.CoreBlock(1)] <= cfg.AmbientC+1 || ss[m.CoreBlock(1)] >= upper {
		t.Fatalf("steady core temp %v outside (ambient, ambient+P*R] = (%v, %v)",
			ss[m.CoreBlock(1)], cfg.AmbientC, upper)
	}
	// SteadyState must not mutate the live model.
	if m.Temp(m.CoreBlock(1)) != cfg.InitialC {
		t.Fatal("SteadyState modified model state")
	}
}

func TestStepSubdividesLongIntervals(t *testing.T) {
	m := MustNew(DefaultConfig(), 4)
	p := make([]float64, m.NumBlocks())
	p[m.CoreBlock(0)] = 5
	m.Step(p, 0.01)
	if m.Steps < 10 {
		t.Fatalf("long step not subdivided: %d sub-steps", m.Steps)
	}
	before := m.Steps
	m.Step(p, 0)
	if m.Steps != before {
		t.Fatal("zero-length step should do nothing")
	}
}

func TestTempsCopy(t *testing.T) {
	m := MustNew(DefaultConfig(), 4)
	temps := m.Temps()
	temps[m.CoreBlock(0)] = 999
	if m.Temp(m.CoreBlock(0)) == 999 {
		t.Fatal("Temps returned a live reference")
	}
}

func TestRealisticPowerMapStaysInLeakageModelRange(t *testing.T) {
	// With the default energy model's typical powers (cores ~5-10 W, L2
	// banks ~1-3 W, bus ~1 W), steady temperatures must stay well within
	// the leakage model's validity range (25-125°C) — on the paper's 4-core
	// floorplan and on the wider scenario floorplans.
	for _, cores := range []int{2, 4, 8} {
		m := MustNew(DefaultConfig(), cores)
		p := make([]float64, m.NumBlocks())
		for i := 0; i < cores; i++ {
			p[m.CoreBlock(i)] = 8
			p[m.L2Block(i)] = 2.5
		}
		p[m.Bus()] = 1
		ss := m.SteadyState(p, 0.01)
		for b := Block(0); int(b) < m.NumBlocks(); b++ {
			if ss[b] < 45 || ss[b] > 125 {
				t.Fatalf("%d cores: block %v steady temperature %v°C outside the leakage model's range", cores, b, ss[b])
			}
		}
		// Cores must run hotter than their L2 banks.
		if ss[m.CoreBlock(0)] <= ss[m.L2Block(0)] {
			t.Fatalf("%d cores: cores should be hotter than L2 banks", cores)
		}
	}
}

// TestFourCoreSubsumesLegacyLayout pins the N-core generalisation to the old
// fixed 4-core model: same block order, same neighbour-driven integration.
func TestFourCoreSubsumesLegacyLayout(t *testing.T) {
	m := MustNew(DefaultConfig(), 4)
	if m.NumBlocks() != 9 {
		t.Fatalf("4-core floorplan has %d blocks, want 9", m.NumBlocks())
	}
	// An asymmetric power map must integrate to the exact values the fixed
	// layout produced (blocks 0-3 cores, 4-7 banks, 8 bus).
	p := []float64{8, 0, 3, 0, 2, 0, 1, 0, 0.5}
	m.Step(p, 0.25)
	if m.Temp(Block(0)) <= m.Temp(Block(1)) {
		t.Fatal("power map not applied in block order")
	}
	if m.Temp(Block(4)) <= m.Temp(Block(7)) {
		t.Fatal("bank power map not applied in block order")
	}
}

// Property: temperatures never fall below (ambient - guard band) and more
// power never yields a lower temperature for the powered block.
func TestPropertyMonotoneInPower(t *testing.T) {
	f := func(rawP uint8) bool {
		pw := float64(rawP%50) + 1
		m1 := MustNew(DefaultConfig(), 4)
		m2 := MustNew(DefaultConfig(), 4)
		p1 := make([]float64, m1.NumBlocks())
		p2 := make([]float64, m2.NumBlocks())
		c2 := m1.CoreBlock(2)
		p1[c2] = pw
		p2[c2] = pw * 2
		m1.Step(p1, 1.0)
		m2.Step(p2, 1.0)
		if m2.Temp(c2) < m1.Temp(c2) {
			return false
		}
		return m1.Temp(c2) >= DefaultConfig().AmbientC-50 &&
			!math.IsNaN(m1.Temp(c2)) && !math.IsInf(m2.Temp(c2), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
