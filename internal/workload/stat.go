package workload

// The statistical workload family: "stat:<key>=<val>,..." builds a Markov
// phase-mixture generator whose locality, footprint, compute ratio and
// write share are spec knobs instead of hand-tuned benchmark profiles, so
// stress cases beyond the paper's benchmark suite (huge footprints, extreme
// write sharing, near-zero locality) are one spec string away.
//
// Each stream walks a small Markov chain over `states` synthetic phases.
// The phases' parameters — and the transition weights between them — are
// drawn deterministically from a hash of the spec string, so the spec alone
// pins the workload: the same string always describes the same program, on
// any machine, and everything keyed on benchmark strings (result cache,
// scenario digests) identifies it for free.  The seed picks
// the per-core sample path through that fixed program, exactly as it picks
// the RNG path of the built-in benchmarks.
//
// # Spec grammar
//
//	stat:refs=200K,states=3,phase=20K,foot=2M,shared=512K,
//	     loc=0.6,comp=3,write=0.3,share=0.2
//
// Every key is optional (the value above is its default); counts and byte
// sizes accept K/M/G suffixes (binary, 1024-based).
//
//	states  number of Markov phase states, [1,16]
//	refs    memory references per core at scale 1.0
//	phase   mean references per phase instance
//	foot    private footprint bytes per core
//	shared  shared-region bytes
//	loc     temporal locality knob in [0,1] (scales the Zipf skews)
//	comp    mean compute instructions per reference
//	write   store fraction in [0,1]
//	share   shared-access fraction in [0,1]

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"cmpleak/internal/sim"
)

func init() {
	RegisterScheme("stat", func(rest string, scale float64) (Generator, error) {
		return newStat(rest, scale)
	})
}

// statSpec is a parsed stat benchmark specification.
type statSpec struct {
	states      int
	refs        int
	phase       int
	footBytes   uint64
	sharedBytes uint64
	loc         float64
	comp        float64
	write       float64
	share       float64
}

// defaultStatSpec holds the documented default for every knob.
func defaultStatSpec() statSpec {
	return statSpec{
		states:      3,
		refs:        200 << 10,
		phase:       20 << 10,
		footBytes:   2 << 20,
		sharedBytes: 512 << 10,
		loc:         0.6,
		comp:        3,
		write:       0.3,
		share:       0.2,
	}
}

// maxStatStates bounds the Markov chain so a hostile spec cannot demand an
// absurd parameter table.
const maxStatStates = 16

// parseStatSpec parses "key=val,..." (the part after "stat:").
func parseStatSpec(raw string) (statSpec, error) {
	spec := defaultStatSpec()
	if strings.TrimSpace(raw) == "" {
		return spec, fmt.Errorf("workload: empty stat spec")
	}
	seen := map[string]bool{}
	for _, item := range strings.Split(raw, ",") {
		key, val, ok := strings.Cut(item, "=")
		if !ok || key == "" || val == "" {
			return spec, fmt.Errorf("workload: stat spec item %q is not key=value", item)
		}
		if seen[key] {
			return spec, fmt.Errorf("workload: stat spec sets %q twice", key)
		}
		seen[key] = true
		var err error
		switch key {
		case "states":
			spec.states, err = parseCount(val, 1, maxStatStates)
		case "refs":
			spec.refs, err = parseCount(val, 1, 1<<31)
		case "phase":
			spec.phase, err = parseCount(val, 1, 1<<31)
		case "foot":
			spec.footBytes, err = parseSize(val, 64, 1<<40)
		case "shared":
			spec.sharedBytes, err = parseSize(val, 0, 1<<40)
		case "loc":
			spec.loc, err = parseFrac(val)
		case "comp":
			spec.comp, err = parseNonNeg(val, 1<<20)
		case "write":
			spec.write, err = parseFrac(val)
		case "share":
			spec.share, err = parseFrac(val)
		default:
			return spec, fmt.Errorf("workload: stat spec has unknown key %q", key)
		}
		if err != nil {
			return spec, fmt.Errorf("workload: stat spec %s=%s: %w", key, val, err)
		}
	}
	return spec, nil
}

// parseScaled parses a non-negative integer with an optional binary K/M/G
// suffix.
func parseScaled(s string) (uint64, error) {
	mult := uint64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("not a count: %v", err)
	}
	if mult > 1 && v > (1<<62)/mult {
		return 0, fmt.Errorf("value overflows")
	}
	return v * mult, nil
}

func parseCount(s string, lo, hi int) (int, error) {
	v, err := parseScaled(s)
	if err != nil {
		return 0, err
	}
	if v < uint64(lo) || v > uint64(hi) {
		return 0, fmt.Errorf("outside [%d,%d]", lo, hi)
	}
	return int(v), nil
}

func parseSize(s string, lo, hi uint64) (uint64, error) {
	v, err := parseScaled(s)
	if err != nil {
		return 0, err
	}
	if v < lo || v > hi {
		return 0, fmt.Errorf("outside [%d,%d]", lo, hi)
	}
	return v, nil
}

func parseFrac(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v < 0 || v > 1 || v != v {
		return 0, fmt.Errorf("not a fraction in [0,1]")
	}
	return v, nil
}

func parseNonNeg(s string, hi float64) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v < 0 || v > hi || v != v {
		return 0, fmt.Errorf("not in [0,%g]", hi)
	}
	return v, nil
}

// statGenerator is the resolved Markov phase-mixture benchmark.  All
// derived tables (per-state phase parameters, transition rows) are built at
// construction from the spec hash, so building one is cheap and pure —
// scenario validation resolves stat specs statically.
type statGenerator struct {
	raw   string
	spec  statSpec
	scale float64
	// stateParams[s] is state s's phase template (refs filled per instance).
	stateParams []phaseParams
	// trans[s] is state s's cumulative transition distribution over states.
	trans [][]float64
}

const statLineBytes = 64

// newStat parses the spec and derives the phase-state tables.
func newStat(raw string, scale float64) (*statGenerator, error) {
	spec, err := parseStatSpec(raw)
	if err != nil {
		return nil, err
	}
	g := &statGenerator{raw: raw, spec: spec, scale: scale}

	// Every derived number comes from the spec hash, never from the seed:
	// the spec names a fixed program, the seed only picks sample paths.
	h := fnv.New64a()
	h.Write([]byte(raw))
	rng := sim.NewRand(h.Sum64() | 1)

	privBlocks := maxU64(spec.footBytes/statLineBytes, 1)
	sharedBlocks := maxU64(spec.sharedBytes/statLineBytes, 1)
	g.stateParams = make([]phaseParams, spec.states)
	for s := range g.stateParams {
		p := phaseParams{
			meanCompute:     spec.comp * (0.5 + rng.Float64()),
			storeFrac:       clamp01(spec.write * (0.6 + 0.8*rng.Float64())),
			sharedFrac:      clamp01(spec.share * (0.5 + rng.Float64())),
			sharedStoreFrac: clamp01(spec.write * (0.4 + 0.8*rng.Float64())),
			privBlocks:      maxU64(uint64(float64(privBlocks)*(0.3+0.7*rng.Float64())), 1),
			sharedBlocks:    sharedBlocks,
			privSkew:        0.2 + 1.6*spec.loc*rng.Float64(),
			sharedSkew:      0.2 + 1.2*spec.loc*rng.Float64(),
		}
		// Some states stream sequentially (stride) instead of Zipf-sampling,
		// and some sweep a moving hot window — the generational behaviour
		// decay techniques exploit.
		if rng.Bool(0.3) {
			p.stride = 1 + uint64(rng.Intn(2))
		}
		if rng.Bool(0.5) {
			p.hotWindowFrac = 0.1 + 0.3*rng.Float64()
		}
		g.stateParams[s] = p
	}

	g.trans = make([][]float64, spec.states)
	for s := range g.trans {
		w := make([]float64, spec.states)
		total := 0.0
		for j := range w {
			w[j] = 0.1 + rng.Float64()
			if j == s {
				w[j] += 2 // phases persist: self-transitions dominate
			}
			total += w[j]
		}
		acc := 0.0
		for j := range w {
			acc += w[j] / total
			w[j] = acc
		}
		w[len(w)-1] = 1 // guard against rounding
		g.trans[s] = w
	}
	return g, nil
}

// Name implements Generator with the self-describing spec string.
func (g *statGenerator) Name() string { return "stat:" + g.raw }

// Streams implements Generator: per-core RNGs are derived exactly like the
// phased benchmarks', each stream walking its own path through the shared
// Markov program.
func (g *statGenerator) Streams(cores int, seed uint64) []Stream {
	if cores <= 0 {
		cores = 1
	}
	regs := newRegions(cores, g.spec.footBytes, g.spec.sharedBytes, statLineBytes)
	streams := make([]Stream, cores)
	for c := 0; c < cores; c++ {
		streams[c] = &statStream{
			g:            g,
			regs:         regs,
			core:         c,
			remaining:    scaleRefs(g.spec.refs, g.scale),
			rng:          sim.NewRand(seed*1315423911 + uint64(c)*2654435761 + 97),
			recentPriv:   newRecentBlocks(48),
			recentShared: newRecentBlocks(48),
		}
	}
	return streams
}

// statStream is one core's Markov phase walk.  Like phasedStream, batching
// is the native path: phaseGen writes straight into the caller's buffer and
// the stream resumes mid-phase, so the entry sequence is identical at every
// batch size.
type statStream struct {
	g    *statGenerator
	regs regions
	core int
	rng  *sim.Rand

	remaining int // references left of the scaled per-core budget
	state     int
	instance  uint64 // phase-instance counter (the hot-window shift)
	started   bool
	active    bool
	gen       phaseGen

	recentPriv   *recentBlocks
	recentShared *recentBlocks
}

// nextPhase draws the next Markov state and starts a phase instance there;
// false once the reference budget is spent.
func (s *statStream) nextPhase() bool {
	if s.remaining <= 0 {
		return false
	}
	if !s.started {
		// Cores start spread across the states, not in lockstep at state 0.
		s.state = s.rng.Intn(s.g.spec.states)
		s.started = true
	} else {
		u := s.rng.Float64()
		row := s.g.trans[s.state]
		next := 0
		for next < len(row)-1 && u >= row[next] {
			next++
		}
		s.state = next
	}
	p := s.g.stateParams[s.state]
	n := s.rng.Geometric(float64(s.g.spec.phase))
	if n > s.remaining {
		n = s.remaining
	}
	p.refs = n
	s.remaining -= n
	s.gen.start(p, s.core, s.instance)
	s.instance++
	s.recentPriv.reset()
	s.recentShared.reset()
	s.active = true
	return true
}

// NextBatch implements BatchStream.
func (s *statStream) NextBatch(buf []Entry) int {
	n := 0
	for n < len(buf) {
		if !s.active && !s.nextPhase() {
			break
		}
		n += s.gen.generate(s.rng, s.regs, s.recentPriv, s.recentShared, buf[n:])
		if s.gen.done() {
			s.active = false
		}
	}
	return n
}

// Next implements Stream as a batch of one.
func (s *statStream) Next() (Entry, bool) {
	var one [1]Entry
	if s.NextBatch(one[:]) == 0 {
		return Entry{}, false
	}
	return one[0], true
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 0.95 {
		return 0.95
	}
	return v
}
