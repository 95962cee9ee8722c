package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"cmpleak/internal/mem"
	"cmpleak/internal/sim"
)

// countValid returns how many lines of c are valid.
func countValid(c *Cache) int {
	n := 0
	for i := range c.lines {
		if c.Valid(i/c.assoc, i%c.assoc) {
			n++
		}
	}
	return n
}

// occupationRate is the paper's occupation rate of one cache: the fraction
// of (line, cycle) pairs powered on over the first elapsed cycles.
func occupationRate(c *Cache, elapsed sim.Cycle) float64 {
	if elapsed == 0 {
		return 0
	}
	return float64(c.OnCycles(elapsed)) / (float64(c.NumLines()) * float64(elapsed))
}

func smallConfig() Config {
	return Config{
		Name:          "test",
		SizeBytes:     4096,
		LineBytes:     64,
		Assoc:         4,
		LatencyCycles: 2,
	}
}

func TestConfigValidate(t *testing.T) {
	good := smallConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []Config{
		{Name: "zero-size", SizeBytes: 0, LineBytes: 64, Assoc: 4},
		{Name: "zero-line", SizeBytes: 4096, LineBytes: 0, Assoc: 4},
		{Name: "zero-assoc", SizeBytes: 4096, LineBytes: 64, Assoc: 0},
		{Name: "odd-line", SizeBytes: 4096, LineBytes: 48, Assoc: 4},
		{Name: "one-byte-line", SizeBytes: 4096, LineBytes: 1, Assoc: 4},
		{Name: "non-pow2-sets", SizeBytes: 4096 + 64*4, LineBytes: 64, Assoc: 4},
		{Name: "assoc-17", SizeBytes: 17 * 64 * 4, LineBytes: 64, Assoc: 17},
		{Name: "assoc-32", SizeBytes: 4096, LineBytes: 64, Assoc: 32},
	}
	for _, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q should not validate", c.Name)
		}
	}
}

func TestConfigDerived(t *testing.T) {
	c := smallConfig()
	if c.NumLines() != 64 {
		t.Fatalf("NumLines %d, want 64", c.NumLines())
	}
	if c.NumSets() != 16 {
		t.Fatalf("NumSets %d, want 16", c.NumSets())
	}
	c.ExtraLatency = 1
	if c.Latency() != 3 {
		t.Fatalf("Latency %d, want 3", c.Latency())
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty config")
	}
	// A 1-byte line leaves no address that is not block-aligned, so the
	// empty-way tag sentinel could match a real block.
	_, err := New(Config{Name: "L2-tiny", SizeBytes: 4096, LineBytes: 1, Assoc: 4})
	if err == nil || !strings.Contains(err.Error(), `"L2-tiny"`) {
		t.Fatalf("New with 1-byte lines: err %v, want an error naming the cache", err)
	}
	// A recency permutation holds at most 16 ways; wider sets are refused,
	// not served by a second replacement path.
	for _, assoc := range []int{17, 32} {
		name := fmt.Sprintf("L2-%dway", assoc)
		_, err := New(Config{Name: name, SizeBytes: uint64(assoc) * 64 * 4, LineBytes: 64, Assoc: assoc})
		if err == nil || !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Fatalf("New with associativity %d: err %v, want an error naming the cache", assoc, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on bad config")
		}
	}()
	MustNew(Config{})
}

func TestLookupMissOnEmpty(t *testing.T) {
	c := MustNew(smallConfig())
	if _, _, found := c.Lookup(0x1000); found {
		t.Fatal("lookup in empty cache found a line")
	}
}

func TestInstallAndLookup(t *testing.T) {
	c := MustNew(smallConfig())
	addr := mem.Addr(0x12345)
	set, way, found := c.Lookup(addr)
	if found {
		t.Fatal("unexpected hit")
	}
	way = c.Victim(set)
	c.Install(addr, set, way)
	s2, w2, found := c.Lookup(addr)
	if !found || s2 != set || w2 != way {
		t.Fatalf("installed block not found: set %d way %d found %v", s2, w2, found)
	}
	if tag := c.Tag(s2, w2); tag != mem.BlockAddr(addr, 64) {
		t.Fatalf("tag %v, want block-aligned %v", tag, mem.BlockAddr(addr, 64))
	}
	// Another address in the same block also hits.
	if _, _, found := c.Lookup(addr + 1); !found {
		t.Fatal("same-block address did not hit")
	}
	// A different block misses.
	if _, _, found := c.Lookup(addr + 64); found {
		t.Fatal("different block hit unexpectedly")
	}
}

func TestVictimPrefersInvalid(t *testing.T) {
	c := MustNew(smallConfig())
	addr := mem.Addr(0)
	set := c.SetIndex(addr)
	// Fill three of four ways.
	for i := 0; i < 3; i++ {
		a := addr + mem.Addr(i)*64*16 // same set (16 sets * 64B line)
		s, _, _ := c.Lookup(a)
		if s != set {
			t.Fatalf("address construction broken: set %d vs %d", s, set)
		}
		c.Install(a, set, c.Victim(set))
	}
	v := c.Victim(set)
	if c.Valid(set, v) {
		t.Fatal("victim selection ignored an invalid way")
	}
}

func TestVictimLRU(t *testing.T) {
	c := MustNew(smallConfig())
	base := mem.Addr(0)
	set := c.SetIndex(base)
	addrs := make([]mem.Addr, 4)
	for i := range addrs {
		addrs[i] = base + mem.Addr(i)*64*16
		c.Install(addrs[i], set, c.Victim(set))
	}
	// Touch 0 again so way holding addrs[1] becomes LRU.
	s, w, _ := c.Lookup(addrs[0])
	c.Touch(s, w)
	v := c.Victim(set)
	if c.Tag(set, v) != addrs[1] {
		t.Fatalf("LRU victim holds %v, want %v", c.Tag(set, v), addrs[1])
	}
}

// TestLineSize pins the 3-byte line metadata: the State, Powered and
// DecayArmed bytes.  Validity lives only in the per-set valid masks (one bit
// per line), the tag only in the dense tag array (8 bytes per line) and the
// arm tick only in decaying banks' arm tick arrays (4 bytes per line), so an
// always-on bank holds 11 bytes per line and a decaying bank 15, before the
// per-set valid mask and replacement state.
func TestLineSize(t *testing.T) {
	if n := unsafe.Sizeof(Line{}); n != 3 {
		t.Fatalf("sizeof(Line) = %d, want 3", n)
	}
}

// Decay bookkeeping exists only on banks a decaying technique enabled: one
// arm tick per line beside the due and saturated bitmaps.
func TestDecayArraysOnlyWhenEnabled(t *testing.T) {
	c := MustNew(smallConfig())
	if c.armTick != nil || c.decaySat != nil {
		t.Fatal("a bank without EnableDecay holds decay arrays")
	}
	for k := range c.decayDue {
		if c.decayDue[k] != nil {
			t.Fatalf("a bank without EnableDecay holds due bitmap %d", k)
		}
	}
	c.EnableDecay()
	if len(c.armTick) != c.NumLines() {
		t.Fatalf("EnableDecay allocated %d arm ticks, want one per line (%d)", len(c.armTick), c.NumLines())
	}
}

func TestInvalidate(t *testing.T) {
	c := MustNew(smallConfig())
	a := mem.Addr(0x40)
	set, _, _ := c.Lookup(a)
	way := c.Victim(set)
	c.Install(a, set, way)
	ln := c.Line(set, way)
	ln.DecayArmed = true
	c.Invalidate(set, way)
	if c.Valid(set, way) || ln.DecayArmed || c.Tag(set, way) != invalidTag {
		t.Fatal("invalidate did not clear line metadata")
	}
	if _, _, found := c.Lookup(a); found {
		t.Fatal("invalidated block still found")
	}
}

func TestPowerAccounting(t *testing.T) {
	c := MustNew(smallConfig())
	c.PowerOn(0, 0, 100)
	c.PowerOn(0, 1, 100)
	if c.PoweredLines() != 2 {
		t.Fatalf("powered lines %d, want 2", c.PoweredLines())
	}
	c.PowerOff(0, 0, 150)
	if c.PoweredLines() != 1 {
		t.Fatalf("powered lines %d, want 1", c.PoweredLines())
	}
	// 50 cycles from the closed line + 100 from the still-open one at t=200.
	if got := c.OnCycles(200); got != 50+100 {
		t.Fatalf("OnCycles(200) = %d, want 150", got)
	}
	// Double power-on and double power-off are idempotent.
	c.PowerOn(0, 1, 160)
	c.PowerOff(0, 0, 170)
	if c.PoweredLines() != 1 {
		t.Fatal("idempotence violated")
	}
}

func TestPowerOnAllAndOccupation(t *testing.T) {
	c := MustNew(smallConfig())
	c.PowerOnAll(0)
	if c.PoweredLines() != c.Config().NumLines() {
		t.Fatal("PowerOnAll did not power every line")
	}
	if rate := occupationRate(c, 1000); rate < 0.999 || rate > 1.001 {
		t.Fatalf("occupation of always-on cache %v, want 1.0", rate)
	}
}

func TestOccupationRateHalf(t *testing.T) {
	c := MustNew(smallConfig())
	n := c.Config().NumLines()
	// Power half the lines for the whole window.
	for i := 0; i < n/2; i++ {
		c.PowerOn(i/c.Assoc(), i%c.Assoc(), 0)
	}
	rate := occupationRate(c, 1000)
	if rate < 0.49 || rate > 0.51 {
		t.Fatalf("occupation %v, want ~0.5", rate)
	}
}

func TestOccupationRateZeroElapsed(t *testing.T) {
	c := MustNew(smallConfig())
	c.PowerOnAll(0)
	if c.OnCycles(0) != 0 || occupationRate(c, 0) != 0 {
		t.Fatal("occupation over zero cycles should be 0")
	}
}

func TestForEachValidAndCount(t *testing.T) {
	c := MustNew(smallConfig())
	if countValid(c) != 0 {
		t.Fatal("empty cache reports valid lines")
	}
	for i := 0; i < 10; i++ {
		a := mem.Addr(i * 64)
		set, _, _ := c.Lookup(a)
		c.Install(a, set, c.Victim(set))
	}
	if n := countValid(c); n != 10 {
		t.Fatalf("%d valid lines, want 10", n)
	}
}

func TestSetIndexStableWithinBlock(t *testing.T) {
	c := MustNew(smallConfig())
	for off := mem.Addr(0); off < 64; off++ {
		if c.SetIndex(0x1000+off) != c.SetIndex(0x1000) {
			t.Fatal("addresses within a block map to different sets")
		}
	}
}

// stampLRU is the replacement policy the packed ranks replaced: an 8-byte
// stamp per way bumped from a monotonic clock on every touch, victim = the
// lowest-indexed invalid way, else the way with the smallest stamp.  It is
// kept here as the reference model the permutation must reproduce exactly.
type stampLRU struct {
	valid []bool
	stamp []uint64
	clk   uint64
}

func newStampLRU(assoc int) *stampLRU {
	return &stampLRU{valid: make([]bool, assoc), stamp: make([]uint64, assoc)}
}

func (s *stampLRU) touch(way int) {
	s.clk++
	s.stamp[way] = s.clk
}

func (s *stampLRU) victim() int {
	best, bestStamp, first := 0, uint64(0), true
	for w := range s.valid {
		if !s.valid[w] {
			return w
		}
		if first || s.stamp[w] < bestStamp {
			best, bestStamp, first = w, s.stamp[w], false
		}
	}
	return best
}

// Property: over randomized install/touch/invalidate sequences at
// associativities 2, 4, 8 and 16 (up to the widest a cache accepts), the
// packed-rank Victim agrees with the stamp-LRU reference on every single
// victim choice.  This is the invariant that keeps the golden fixed-seed
// digest unchanged across the replacement-state rewrite.
func TestPropertyPackedRankMatchesStampLRU(t *testing.T) {
	for _, assoc := range []int{2, 4, 8, 16} {
		assoc := assoc
		t.Run(fmt.Sprintf("assoc%d", assoc), func(t *testing.T) {
			const sets = 4
			c := MustNew(Config{
				Name: "lru-prop", SizeBytes: uint64(sets * assoc * 64),
				LineBytes: 64, Assoc: assoc, LatencyCycles: 1,
			})
			refs := make([]*stampLRU, sets)
			for s := range refs {
				refs[s] = newStampLRU(assoc)
			}
			rng := sim.NewRand(uint64(assoc) * 1000003)
			// Address that maps block b of set s (stride sets*64 stays in set).
			addrFor := func(set int, b uint64) mem.Addr {
				return mem.Addr(uint64(set)*64 + b*uint64(sets)*64)
			}
			var nextBlock uint64
			for i := 0; i < 20000; i++ {
				set := rng.Intn(sets)
				ref := refs[set]
				switch op := rng.Intn(10); {
				case op < 5: // touch a valid way (a hit)
					way := rng.Intn(assoc)
					if !ref.valid[way] {
						continue
					}
					c.Touch(set, way)
					ref.touch(way)
				case op < 8: // fill: both sides must pick the same victim
					got, want := c.Victim(set), ref.victim()
					if got != want {
						t.Fatalf("step %d set %d: packed victim %d, stamp victim %d", i, set, got, want)
					}
					nextBlock++
					if c.Valid(set, got) {
						c.Invalidate(set, got)
					}
					c.Install(addrFor(set, nextBlock), set, got)
					ref.valid[want] = true
					ref.touch(want)
				default: // invalidate a random way
					way := rng.Intn(assoc)
					if !ref.valid[way] {
						continue
					}
					c.Invalidate(set, way)
					ref.valid[way] = false
				}
				// Victim choice must agree at every step, not just on fills.
				if got, want := c.Victim(set), ref.victim(); got != want {
					t.Fatalf("step %d set %d: packed victim %d, stamp victim %d", i, set, got, want)
				}
			}
		})
	}
}

// Property: over any sequence of lookups, fills, invalidations and decay
// arming on a decaying bank, the valid mask and the tag sentinel agree on
// every way after every step (the sentinel is Lookup's mirror of the one
// validity record), every valid line's tag is block-aligned and maps back
// to the set it occupies, and only a valid line is armed (DecayTick relies
// on DecayArmed implying valid; Install and Invalidate disarm).
func TestPropertyTagsConsistent(t *testing.T) {
	cfg := smallConfig()
	cfg.SizeBytes = 1024 // 4 sets of 4 ways, so short sequences evict
	f := func(raw []uint32) bool {
		c := MustNew(cfg)
		c.EnableDecay()
		for _, r := range raw {
			// r's low two bits pick the operation and the rest one of 64
			// blocks (two regions 2 GiB apart, together four times the
			// cache's 16 lines), so sequences hit, evict, arm and invalidate.
			blk := uint64(r>>2&31) | uint64(r>>31)<<25
			a := mem.Addr(blk<<6 | uint64(r>>9&63))
			set, way, found := c.Lookup(a)
			switch {
			case found && r&3 == 0:
				c.Invalidate(set, way)
			case found && r&3 == 1:
				c.Line(set, way).DecayArmed = true
				c.ResetDecay(set, way)
			case found:
				c.Touch(set, way)
			default:
				way = c.Victim(set)
				c.Install(a, set, way)
				if c.Line(set, way).DecayArmed {
					return false
				}
			}
			for i := range c.lines {
				set, way := i/c.Assoc(), i%c.Assoc()
				tag := c.Tag(set, way)
				if c.Valid(set, way) != (tag != invalidTag) {
					return false
				}
				if c.Valid(set, way) && (mem.BlockOffset(tag, c.Config().LineBytes) != 0 || c.SetIndex(tag) != set) {
					return false
				}
				if c.Line(set, way).DecayArmed && !c.Valid(set, way) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: the number of powered lines never goes negative or exceeds the
// number of lines, for any interleaving of PowerOn/PowerOff.
func TestPropertyPowerBounds(t *testing.T) {
	f := func(ops []uint16) bool {
		c := MustNew(smallConfig())
		lines := c.Config().NumLines()
		now := sim.Cycle(0)
		for _, op := range ops {
			now++
			idx := int(op) % lines
			set, way := idx/c.Config().Assoc, idx%c.Config().Assoc
			if op&0x8000 != 0 {
				c.PowerOn(set, way, now)
			} else {
				c.PowerOff(set, way, now)
			}
			if c.PoweredLines() < 0 || c.PoweredLines() > lines {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// useCache drives c through fills, power transitions and decay ticks, so every part of its state differs from a new cache's.
func useCache(c *Cache) {
	c.EnableDecay()
	for i := 0; i < 3*c.NumLines()/2; i++ {
		a := mem.Addr(i * int(c.Config().LineBytes))
		set, _, _ := c.Lookup(a)
		way := c.Victim(set)
		c.Install(a, set, way)
		c.PowerOn(set, way, sim.Cycle(i))
		c.Line(set, way).DecayArmed = i%3 != 0
		c.ResetDecay(set, way)
		if i%5 == 0 {
			c.Invalidate(set, way)
			c.PowerOff(set, way, sim.Cycle(i))
		}
		if i%7 == 0 {
			for _, idx := range c.DecayTick(nil) {
				c.KeepSaturated(idx)
			}
		}
	}
}

// TestInitMatchesNew rebuilds a used cache with Init for a smaller, a
// larger, a differently associative and a 16-way geometry, and checks each is indistinguishable from New's cache of that geometry,
// decay bookkeeping included.
func TestInitMatchesNew(t *testing.T) {
	base := Config{Name: "L2", SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 8, LatencyCycles: 10}
	c := MustNew(base)
	for _, cfg := range []Config{
		base,
		{Name: "small", SizeBytes: 16 * 1024, LineBytes: 64, Assoc: 8, LatencyCycles: 10},
		{Name: "big", SizeBytes: 256 * 1024, LineBytes: 64, Assoc: 8, LatencyCycles: 10},
		{Name: "4-way", SizeBytes: 32 * 1024, LineBytes: 32, Assoc: 4, LatencyCycles: 2},
		{Name: "16-way", SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 16, LatencyCycles: 10},
		base,
	} {
		useCache(c)
		c.Init(cfg)
		fresh := MustNew(cfg)
		// A new cache has never enabled decay; compare with it enabled on
		// both, which also checks Init left no stale arm tick or bitmap.
		c.EnableDecay()
		fresh.EnableDecay()
		if !reflect.DeepEqual(c, fresh) {
			t.Fatalf("%s: Init of a used cache differs from New", cfg.Name)
		}
	}
}

// TestInitAllocationFree guards the reuse (`make test-allocs`): rebuilding
// a used bank of the same geometry and enabling decay on it allocates
// nothing.
func TestInitAllocationFree(t *testing.T) {
	cfg := benchConfig(1 << 20)
	c := MustNew(cfg)
	useCache(c)
	if allocs := testing.AllocsPerRun(20, func() {
		c.Init(cfg)
		c.EnableDecay()
	}); allocs != 0 {
		t.Errorf("Init+EnableDecay of a used cache allocates %.1f objects/op, want 0", allocs)
	}
}
