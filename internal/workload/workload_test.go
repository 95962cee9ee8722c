package workload

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cmpleak/internal/mem"
)

func TestOpKindString(t *testing.T) {
	if None.String() != "none" || Load.String() != "load" || Store.String() != "store" {
		t.Fatal("op kind names wrong")
	}
	if OpKind(9).String() == "" {
		t.Fatal("unknown op kind should render")
	}
}

func TestEntryInstructions(t *testing.T) {
	if (Entry{ComputeInstrs: 5}).Instructions() != 5 {
		t.Fatal("pure compute entry instruction count wrong")
	}
	if (Entry{ComputeInstrs: 5, Op: Load}).Instructions() != 6 {
		t.Fatal("memory entry instruction count wrong")
	}
	// A hostile source (e.g. an imported trace) can hold a negative compute
	// count; it must clamp to zero, not wrap into ~2^64 instructions.
	if got := (Entry{ComputeInstrs: -3, Op: Store}).Instructions(); got != 1 {
		t.Fatalf("negative compute run counted as %d instructions, want 1", got)
	}
	if got := (Entry{ComputeInstrs: -1}).Instructions(); got != 0 {
		t.Fatalf("negative compute-only entry counted as %d instructions, want 0", got)
	}
}

func TestClassString(t *testing.T) {
	if Scientific.String() != "scientific" || Multimedia.String() != "multimedia" || Synthetic.String() != "synthetic" {
		t.Fatal("class names wrong")
	}
	if Class(9).String() == "" {
		t.Fatal("unknown class should render")
	}
}

func TestRegistryContainsPaperBenchmarks(t *testing.T) {
	names := Names()
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	for _, want := range PaperBenchmarks() {
		if !set[want] {
			t.Errorf("benchmark %q not registered", want)
		}
	}
	if len(PaperBenchmarks()) != 6 {
		t.Fatal("the paper evaluates exactly six benchmarks")
	}
}

func TestByName(t *testing.T) {
	g, err := ByName("FMM", 0.1)
	if err != nil || g == nil {
		t.Fatalf("ByName(FMM): %v", err)
	}
	if g.Name() != "FMM" {
		t.Fatalf("generator name %q", g.Name())
	}
	if _, err := ByName("does-not-exist", 1); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestClassOf(t *testing.T) {
	for _, n := range []string{"WATER-NS", "FMM", "VOLREND"} {
		if ClassOf(n) != Scientific {
			t.Errorf("%s should be scientific", n)
		}
	}
	for _, n := range []string{"mpeg2enc", "mpeg2dec", "facerec"} {
		if ClassOf(n) != Multimedia {
			t.Errorf("%s should be multimedia", n)
		}
	}
	if ClassOf("whatever") != Synthetic {
		t.Error("unknown benchmarks should be synthetic")
	}
}

// sliceStream replays a pre-generated slice of entries.
type sliceStream struct {
	entries []Entry
	pos     int
}

// NextBatch implements Stream: one memmove per batch.
func (s *sliceStream) NextBatch(buf []Entry) int {
	n := copy(buf, s.entries[s.pos:])
	s.pos += n
	return n
}

func TestSliceStream(t *testing.T) {
	entries := []Entry{{ComputeInstrs: 1, Op: Load, Addr: 0x10}, {ComputeInstrs: 2, Op: Store, Addr: 0x20}}
	s := &sliceStream{entries: entries}
	got := Drain(s)
	if len(got) != 2 || got[0].Addr != 0x10 || got[1].Op != Store {
		t.Fatalf("drained %v", got)
	}
	if n := s.NextBatch(make([]Entry, 4)); n != 0 {
		t.Fatalf("stream yielded %d entries after drain, want 0", n)
	}
}

func TestStreamsDeterministicAndSeedSensitive(t *testing.T) {
	g, _ := ByName("WATER-NS", 0.05)
	a := Drain(g.Streams(2, 42)[0])
	g2, _ := ByName("WATER-NS", 0.05)
	b := Drain(g2.Streams(2, 42)[0])
	if len(a) != len(b) {
		t.Fatalf("same seed produced different lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at entry %d", i)
		}
	}
	g3, _ := ByName("WATER-NS", 0.05)
	c := Drain(g3.Streams(2, 43)[0])
	same := 0
	for i := 0; i < len(a) && i < len(c); i++ {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestStreamsPerCoreDiffer(t *testing.T) {
	g, _ := ByName("mpeg2dec", 0.05)
	streams := g.Streams(4, 7)
	if len(streams) != 4 {
		t.Fatalf("got %d streams, want 4", len(streams))
	}
	a := Drain(streams[0])
	b := Drain(streams[1])
	identical := len(a) == len(b)
	if identical {
		for i := range a {
			if a[i] != b[i] {
				identical = false
				break
			}
		}
	}
	if identical {
		t.Fatal("two cores produced identical streams")
	}
}

func TestPrivateRegionsDoNotOverlap(t *testing.T) {
	g, _ := ByName("facerec", 0.05)
	streams := g.Streams(4, 11)
	// Collect the private block addresses per core; shared addresses are
	// above the private regions by construction, so any block observed by
	// two different cores must lie in the shared region (>= max private
	// base of the last core).
	blocks := make([]map[mem.Addr]bool, 4)
	var maxAddr mem.Addr
	for c, s := range streams {
		blocks[c] = make(map[mem.Addr]bool)
		for _, e := range Drain(s) {
			if e.Op == None {
				continue
			}
			b := mem.BlockAddr(e.Addr, 64)
			blocks[c][b] = true
			if b > maxAddr {
				maxAddr = b
			}
		}
	}
	// Find blocks shared between cores 0 and 1 and verify there exists at
	// least one private block not seen by the other core.
	onlyZero := 0
	for b := range blocks[0] {
		if !blocks[1][b] {
			onlyZero++
		}
	}
	if onlyZero == 0 {
		t.Fatal("core 0 has no private blocks; region layout broken")
	}
}

func TestWorkloadsHaveExpectedCharacter(t *testing.T) {
	// Scientific workloads must exhibit more write sharing than multimedia
	// ones; multimedia workloads are more streaming.
	sharedStores := func(name string) float64 {
		g, err := ByName(name, 0.05)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		streams := g.Streams(2, 3)
		// Shared region = blocks seen by both cores.
		seen := make([]map[mem.Addr]bool, 2)
		all := make([][]Entry, 2)
		for c, s := range streams {
			seen[c] = make(map[mem.Addr]bool)
			all[c] = Drain(s)
			for _, e := range all[c] {
				if e.Op != None {
					seen[c][mem.BlockAddr(e.Addr, 64)] = true
				}
			}
		}
		stores, refs := 0, 0
		for _, e := range all[0] {
			if e.Op == None {
				continue
			}
			refs++
			if e.Op == Store && seen[1][mem.BlockAddr(e.Addr, 64)] {
				stores++
			}
		}
		if refs == 0 {
			t.Fatalf("benchmark %s generated no references", name)
		}
		return float64(stores) / float64(refs)
	}
	if sharedStores("FMM") <= sharedStores("facerec") {
		t.Errorf("FMM should have more write sharing than facerec (%v vs %v)",
			sharedStores("FMM"), sharedStores("facerec"))
	}
}

func TestSyntheticConfigValidate(t *testing.T) {
	good := DefaultSyntheticConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := good
	bad.References = 0
	if bad.Validate() == nil {
		t.Fatal("zero references accepted")
	}
	bad = good
	bad.PrivateBytes, bad.SharedBytes = 0, 0
	if bad.Validate() == nil {
		t.Fatal("empty footprint accepted")
	}
	bad = good
	bad.StoreFraction = 1.5
	if bad.Validate() == nil {
		t.Fatal("fraction above one accepted")
	}
	if _, err := NewSynthetic(bad, 1); err == nil {
		t.Fatal("NewSynthetic accepted an invalid config")
	}
}

func TestSyntheticGeneratorProducesRequestedMix(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.References = 5000
	cfg.StoreFraction = 0.5
	cfg.SharedFraction = 0
	g := MustNewSynthetic(cfg, 1)
	entries := Drain(g.Streams(1, 5)[0])
	if len(entries) != 5000 {
		t.Fatalf("generated %d entries, want 5000", len(entries))
	}
	stores := 0
	for _, e := range entries {
		if e.Op == Store {
			stores++
		}
	}
	frac := float64(stores) / float64(len(entries))
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("store fraction %v, want ~0.5", frac)
	}
}

func TestSyntheticStreamingIsSequential(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.References = 1000
	cfg.SharedFraction = 0
	cfg.StoreFraction = 0 // stores follow recent loads (RMW), not the stream
	cfg.Streaming = true
	g := MustNewSynthetic(cfg, 1)
	entries := Drain(g.Streams(1, 9)[0])
	// Consecutive private accesses must walk forward in block address
	// (modulo wrap-around at the end of the region).
	increasing := 0
	for i := 1; i < len(entries); i++ {
		if mem.BlockAddr(entries[i].Addr, 64) >= mem.BlockAddr(entries[i-1].Addr, 64) {
			increasing++
		}
	}
	if float64(increasing)/float64(len(entries)) < 0.9 {
		t.Fatalf("streaming workload not sequential: %d/%d increasing", increasing, len(entries))
	}
}

func TestMustNewSyntheticPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewSynthetic did not panic")
		}
	}()
	MustNewSynthetic(SyntheticConfig{}, 1)
}

func TestScaleReducesLength(t *testing.T) {
	big, _ := ByName("VOLREND", 0.2)
	small, _ := ByName("VOLREND", 0.02)
	nBig := len(Drain(big.Streams(1, 1)[0]))
	nSmall := len(Drain(small.Streams(1, 1)[0]))
	if nSmall >= nBig {
		t.Fatalf("scaling did not reduce stream length: %d vs %d", nSmall, nBig)
	}
}

// Property: every generated memory entry has a line-aligned block within the
// benchmark's address space and a non-negative compute run.
func TestPropertyEntriesWellFormed(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := ByName("mpeg2enc", 0.02)
		if err != nil {
			return false
		}
		for _, s := range g.Streams(2, seed) {
			for _, e := range Drain(s) {
				if e.ComputeInstrs < 0 {
					return false
				}
				if e.Op != None && e.Addr < 1<<20 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestAlignUp(t *testing.T) {
	if alignUp(100, 64) != 128 || alignUp(128, 64) != 128 || alignUp(0, 64) != 0 {
		t.Fatal("alignUp wrong")
	}
	if alignUp(5, 0) != 5 {
		t.Fatal("alignUp with zero alignment should be identity")
	}
}

func TestZeroCoresDefaultsToOne(t *testing.T) {
	g, _ := ByName("mpeg2dec", 0.02)
	if len(g.Streams(0, 1)) != 1 {
		t.Fatal("zero cores should default to one stream")
	}
}
