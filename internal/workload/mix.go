package workload

// Heterogeneous per-core workload mixes: "mix:<name>=<elem>|<elem>|..."
// assigns a benchmark per core, so a scientific code and a streaming encoder
// can share the bus and (via coherence traffic) each other's decay behaviour
// the way a multi-programmed CMP would.  The element list is a tile pattern:
// core i runs pattern[i%len(pattern)], so "mix:duo=WATER-NS|mpeg2enc" puts
// the scientific code on even cores and the encoder on odd ones at any core
// count the pattern length divides.
//
// The spec string is the mix's whole identity — elements, order, name — so
// everything keyed on benchmark strings (experiment.Options.Digest and the
// result cache keyed on it) distinguishes mixes for free, with no
// registry of out-of-band definitions to drift from the key.

import (
	"fmt"
	"strings"

	"cmpleak/internal/mem"
)

// mixOffsetShift positions each element group's address window: group g adds
// g<<mixOffsetShift to every address, so distinct benchmarks never alias
// each other's data while cores running the same element still share their
// benchmark's shared region.  40 bits (1 TB) clears every built-in
// generator's footprint by orders of magnitude.
const mixOffsetShift = 40

func init() {
	RegisterScheme("mix", func(rest string, scale float64) (Generator, error) {
		return newMix(rest, scale)
	})
}

// ParseMixSpec validates the grammar of a mix spec (the part after "mix:")
// without resolving its elements: "<name>=<elem>|<elem>|...".  The name must
// be non-empty and free of the delimiter characters "=|/:"; every element
// must be non-empty and must not itself be a mix.  Scenario validation uses
// this to reject malformed mixes statically, on machines that do not hold
// the element trace files.
func ParseMixSpec(spec string) (name string, elems []string, err error) {
	name, pattern, ok := strings.Cut(spec, "=")
	if !ok {
		return "", nil, fmt.Errorf("workload: mix spec %q is not of the form name=elem|elem|...", spec)
	}
	if name == "" {
		return "", nil, fmt.Errorf("workload: mix spec %q has an empty name", spec)
	}
	if i := strings.IndexAny(name, "|/:"); i >= 0 {
		return "", nil, fmt.Errorf("workload: mix name %q contains reserved character %q", name, name[i])
	}
	elems = strings.Split(pattern, "|")
	for _, e := range elems {
		if e == "" {
			return "", nil, fmt.Errorf("workload: mix %q has an empty element", name)
		}
		if strings.HasPrefix(e, "mix:") {
			return "", nil, fmt.Errorf("workload: mix %q nests mix element %q", name, e)
		}
	}
	return name, elems, nil
}

// mixGenerator composes existing generators per core.
type mixGenerator struct {
	name    string
	pattern []string // element name per pattern slot
	// uniq / slotGroup group the pattern by element in order of first
	// appearance: slotGroup[i] is the index into uniq (and gens) of
	// pattern[i]'s element.
	uniq      []string
	slotGroup []int
	gens      []Generator // resolved generator per unique element
}

// newMix parses and fully resolves a mix spec at the given scale.
func newMix(spec string, scale float64) (*mixGenerator, error) {
	name, elems, err := ParseMixSpec(spec)
	if err != nil {
		return nil, err
	}
	g := &mixGenerator{name: name, pattern: elems, slotGroup: make([]int, len(elems))}
	groupOf := map[string]int{}
	for i, e := range elems {
		gi, ok := groupOf[e]
		if !ok {
			gen, err := ByName(e, scale)
			if err != nil {
				return nil, fmt.Errorf("workload: mix %q element %q: %w", name, e, err)
			}
			gi = len(g.uniq)
			groupOf[e] = gi
			g.uniq = append(g.uniq, e)
			g.gens = append(g.gens, gen)
		}
		g.slotGroup[i] = gi
	}
	return g, nil
}

// Name implements Generator with the mix's display name.
func (g *mixGenerator) Name() string { return "mix:" + g.name }

// CheckCores implements CoreChecker: the pattern must tile the core count
// evenly, and every element must itself accept the share of cores the
// tiling hands it (a 2-core trace inside a 2-element pattern at 4 cores
// gets exactly its 2 recorded cores).
func (g *mixGenerator) CheckCores(cores int) error {
	if cores <= 0 || cores%len(g.pattern) != 0 {
		return fmt.Errorf("workload: mix %q has %d per-core elements, which do not tile %d cores evenly",
			g.name, len(g.pattern), cores)
	}
	counts := g.groupCounts(cores)
	for gi, gen := range g.gens {
		if err := CheckCores(gen, counts[gi]); err != nil {
			return fmt.Errorf("workload: mix %q element %q: %w", g.name, g.uniq[gi], err)
		}
	}
	return nil
}

// SeedInvariant implements the marker: a mix is seed-invariant only when
// every element is (e.g. a mix of recorded traces).
func (g *mixGenerator) SeedInvariant() bool {
	for _, gen := range g.gens {
		if !IsSeedInvariant(gen) {
			return false
		}
	}
	return true
}

// groupCounts returns how many of `cores` tiled cores each element group
// receives.
func (g *mixGenerator) groupCounts(cores int) []int {
	counts := make([]int, len(g.uniq))
	for i := 0; i < cores; i++ {
		counts[g.slotGroup[i%len(g.pattern)]]++
	}
	return counts
}

// Streams implements Generator: each element group builds its own streams —
// cores running the same element share that element's regions, exactly as
// they would running it alone — and groups after the first are displaced
// into disjoint address windows and reseeded independently.  Group 0 keeps
// the caller's seed and a zero offset, so a single-element mix produces
// byte-identical streams to the plain benchmark.
func (g *mixGenerator) Streams(cores int, seed uint64) []Stream {
	if cores <= 0 {
		cores = 1
	}
	counts := g.groupCounts(cores)
	perGroup := make([][]Stream, len(g.uniq))
	for gi, gen := range g.gens {
		if counts[gi] == 0 {
			continue
		}
		perGroup[gi] = gen.Streams(counts[gi], mixSeed(seed, gi))
		if gi > 0 {
			off := mem.Addr(uint64(gi) << mixOffsetShift)
			for i, s := range perGroup[gi] {
				perGroup[gi][i] = &offsetStream{s: s, off: off}
			}
		}
	}
	next := make([]int, len(g.uniq))
	out := make([]Stream, cores)
	for i := 0; i < cores; i++ {
		gi := g.slotGroup[i%len(g.pattern)]
		out[i] = perGroup[gi][next[gi]]
		next[gi]++
	}
	return out
}

// mixSeed derives element group gi's seed.  Group 0 passes the caller's
// seed through untouched (the single-element-equivalence property); later
// groups get a splitmix64-style finalisation so sibling benchmarks do not
// run in RNG lockstep.
func mixSeed(seed uint64, gi int) uint64 {
	if gi == 0 {
		return seed
	}
	z := seed + uint64(gi)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// offsetStream displaces every memory address of the wrapped stream by a
// fixed offset.  It batches natively — one inner NextBatch plus an in-place
// fixup — so the mix keeps the underlying generators' allocation-free hot
// path.
type offsetStream struct {
	s   Stream
	off mem.Addr
}

// NextBatch implements Stream.
func (o *offsetStream) NextBatch(buf []Entry) int {
	n := o.s.NextBatch(buf)
	for i := 0; i < n; i++ {
		if buf[i].Op != None {
			buf[i].Addr += o.off
		}
	}
	return n
}

// Err passes through the wrapped stream's decode error (a trace element's
// Reader), so consumers that check streams for Err() error still see it.
func (o *offsetStream) Err() error {
	if e, ok := o.s.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}
