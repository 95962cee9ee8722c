package workload

import (
	"cmpleak/internal/sim"
)

// phasedBenchmark is the common machinery behind all six paper benchmarks:
// a layout of private and shared regions plus a list of phases executed in
// order by every core.  Benchmarks differ only in their region sizes and
// phase parameters.
type phasedBenchmark struct {
	name string
	// privBytes / sharedBytes define the per-core and shared footprints.
	privBytes   uint64
	sharedBytes uint64
	lineBytes   uint64
	// phases are executed in order; the whole list is repeated
	// `iterations` times (outer loop of iterative scientific codes, frames
	// of multimedia codes).
	phases     []phaseParams
	iterations int
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
	iterations := b.iterations
	if iterations <= 0 {
		iterations = 1
	}
	streams := make([]Stream, cores)
	for c := 0; c < cores; c++ {
		streams[c] = &phasedStream{
			bench:        b,
			regs:         regs,
			core:         c,
			iterations:   iterations,
			rng:          sim.NewRand(seed*1315423911 + uint64(c)*2654435761 + 97),
			recentPriv:   newRecentBlocks(48),
			recentShared: newRecentBlocks(48),
		}
	}
	return streams
}

// phasedStream is one core's lazily generated reference stream: phaseGen
// writes straight into the caller's batch buffer.
type phasedStream struct {
	bench      *phasedBenchmark
	regs       regions
	core       int
	rng        *sim.Rand
	iterations int

	// iter / phase locate the next phase instance to start; gen is the
	// in-flight instance when active.
	iter   int
	phase  int
	active bool
	gen    phaseGen

	// Read-modify-write candidate pools, reset at each phase boundary (each
	// phase instance of the eager generator built fresh pools).
	recentPriv   *recentBlocks
	recentShared *recentBlocks
}

// nextPhase starts the next phase instance; false when the stream is done.
func (s *phasedStream) nextPhase() bool {
	for s.iter < s.iterations {
		if s.phase < len(s.bench.phases) {
			p := s.bench.phases[s.phase]
			p.refs = scaleRefs(p.refs, s.bench.scale)
			s.gen.start(p, s.core, uint64(s.iter))
			s.recentPriv.reset()
			s.recentShared.reset()
			s.phase++
			s.active = true
			return true
		}
		s.phase = 0
		s.iter++
	}
	return false
}

// NextBatch implements Stream.
func (s *phasedStream) NextBatch(buf []Entry) int {
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
