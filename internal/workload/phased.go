package workload

import (
	"cmpleak/internal/sim"
)

// phasedBenchmark is every generated workload: a layout of private and
// shared regions plus a phase program that each core runs on its own RNG.
// The program has two forms.  A fixed list runs phases in order,
// `iterations` times over (the outer loop of iterative scientific codes,
// the frames of multimedia codes); the six paper benchmarks and the
// SyntheticConfig kernel are fixed lists that differ only in their region
// sizes and phase parameters.  A Markov walk (walk set, see stat.go) treats
// phases as states and moves between them at random; stat: specs are walks.
type phasedBenchmark struct {
	name string
	// privBytes / sharedBytes define the per-core and shared footprints.
	privBytes   uint64
	sharedBytes uint64
	lineBytes   uint64
	// phases is the fixed list, repeated `iterations` times (zero means
	// once), or the states of walk when it is set.
	phases     []phaseParams
	iterations int
	walk       *markovWalk
	// scale multiplies reference counts (reference counts in the phase
	// definitions correspond to scale 1.0).
	scale float64
}

// Name implements Generator.
func (b *phasedBenchmark) Name() string { return b.name }

// Streams implements Generator: every core gets an independent RNG stream
// derived from the seed and its index, over the same shared region.  The
// streams generate lazily, batch by batch, instead of materialising the
// whole trace up front: a full-scale scientific workload is tens of MB of
// entries per core, and generating straight into the consumer's batch
// buffer keeps the resident footprint at a few hundred bytes per stream
// while producing the identical entry sequence.
func (b *phasedBenchmark) Streams(cores int, seed uint64) []Stream {
	if cores <= 0 {
		cores = 1
	}
	regs := newRegions(cores, b.privBytes, b.sharedBytes, b.lineBytes)
	streams := make([]Stream, cores)
	for c := 0; c < cores; c++ {
		streams[c] = &programStream{
			b:            b,
			regs:         regs,
			core:         c,
			rng:          sim.NewRand(seed*1315423911 + uint64(c)*2654435761 + 97),
			recentPriv:   newRecentBlocks(48),
			recentShared: newRecentBlocks(48),
		}
	}
	return streams
}

// programStream is one core's run of a phase program: phaseGen writes
// straight into the caller's batch buffer and the stream resumes
// mid-phase, so the entry sequence is identical at every batch size.
type programStream struct {
	b    *phasedBenchmark
	regs regions
	core int
	rng  *sim.Rand

	// instance counts the phase instances started; state is the walk's
	// current state and drawn the references its instances have drawn so
	// far.  gen is the in-flight instance when active.
	instance uint64
	state    int
	drawn    int
	active   bool
	gen      phaseGen

	// Read-modify-write candidate pools, reset at each phase boundary (each
	// phase instance of the eager generator built fresh pools).
	recentPriv   *recentBlocks
	recentShared *recentBlocks
}

// next returns the stream's next phase instance, its refs scaled, and the
// hot-window shift it sweeps; false when the program is over.  A fixed
// list shifts the window once per iteration; a walk picks its own.
func (b *phasedBenchmark) next(s *programStream) (phaseParams, uint64, bool) {
	if b.walk != nil {
		return b.walk.next(s, b.phases)
	}
	n := uint64(len(b.phases))
	if n == 0 || s.instance >= n*uint64(max(b.iterations, 1)) {
		return phaseParams{}, 0, false
	}
	p := b.phases[s.instance%n]
	p.refs = scaleRefs(p.refs, b.scale)
	return p, s.instance / n, true
}

// nextPhase starts the next phase instance; false when the stream is done.
func (s *programStream) nextPhase() bool {
	p, windowShift, ok := s.b.next(s)
	if !ok {
		return false
	}
	s.gen.start(p, s.core, windowShift)
	s.instance++
	s.recentPriv.reset()
	s.recentShared.reset()
	s.active = true
	return true
}

// NextBatch implements Stream.
func (s *programStream) NextBatch(buf []Entry) int {
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

// scaleRefs scales a reference count, keeping at least one reference so a
// phase never disappears entirely.
func scaleRefs(refs int, scale float64) int {
	if scale <= 0 {
		scale = 1
	}
	n := int(float64(refs) * scale)
	if n < 1 {
		n = 1
	}
	return n
}
