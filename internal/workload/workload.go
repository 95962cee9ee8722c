// Package workload provides the multi-threaded memory-reference generators
// that stand in for the paper's benchmarks (Splash-2: WATER-NS, FMM,
// VOLREND; ALPBench: mpeg2enc, mpeg2dec, facerec).
//
// The real benchmarks cannot be run here (no SESC, no Alpha toolchain, no
// inputs), so each is replaced by a deterministic generator tuned to the
// properties the paper's techniques are sensitive to:
//
//   - footprint relative to L2 capacity (drives the Protocol technique's
//     occupancy and its dependence on cache size),
//   - reuse distance / generational dead time (drives how many useful lines
//     a decay technique kills, i.e. the decay-induced miss rate),
//   - fraction of shared data and of write sharing (drives protocol
//     invalidations, and the Modified-line population that Selective Decay
//     refuses to decay),
//   - read/write mix (write-through traffic on the L2).
//
// Scientific generators use longer generations, larger per-phase working
// sets and more write sharing, so decay hurts their IPC more (Figure 6b);
// multimedia generators are streaming with short-lived blocks, so decay is
// nearly free for them.
package workload

import (
	"fmt"
	"sort"
	"strings"

	"cmpleak/internal/mem"
	"cmpleak/internal/sim"
)

// OpKind is the kind of memory operation in a trace entry.
type OpKind uint8

const (
	// None means the entry carries only compute instructions.
	None OpKind = iota
	// Load is a read.
	Load
	// Store is a write.
	Store
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case None:
		return "none"
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Entry is one unit of a per-core reference stream: a run of compute
// instructions followed by at most one memory operation.
type Entry struct {
	// ComputeInstrs is the number of non-memory instructions preceding the
	// memory operation.
	ComputeInstrs int
	// Op is the memory operation kind (None for a pure compute entry).
	Op OpKind
	// Addr is the byte address accessed when Op != None.
	Addr mem.Addr
}

// Instructions returns the instruction count of the entry (compute plus the
// memory operation itself).  A negative ComputeInstrs — impossible from the
// built-in generators but representable by external producers (trace
// importers, custom streams) — counts as zero instead of wrapping to a huge
// uint64 and corrupting every instruction-derived statistic downstream.
func (e Entry) Instructions() uint64 {
	var n uint64
	if e.ComputeInstrs > 0 {
		n = uint64(e.ComputeInstrs)
	}
	if e.Op != None {
		n++
	}
	return n
}

// Stream produces the reference stream of one core in caller-owned
// batches: one NextBatch call refills a whole buffer, so the consumer's hot
// loop pays one interface dispatch per batch rather than per entry.  The
// built-in generators write straight into the buffer without materialising
// the trace.
type Stream interface {
	// NextBatch fills buf with the next entries of the stream and returns
	// how many were written.  It may return fewer than len(buf); only a
	// return of 0 (with a non-empty buf) means the stream is exhausted.
	NextBatch(buf []Entry) int
}

// AsBatchStream returns s.
//
// Deprecated: Stream is the batch interface; call NextBatch on it directly.
func AsBatchStream(s Stream) Stream { return s }

// Generator builds the per-core streams of one benchmark.
type Generator interface {
	// Name is the benchmark name as used in the paper's figures.
	Name() string
	// Streams returns one stream per core; all streams of one call share
	// the benchmark's shared data regions.  The streams of one call share
	// no mutable state, so each may be drained on its own goroutine
	// (trace.Capture does): phased and stat streams own their RNG, phase
	// generator and read-modify-write pools and only read the generator
	// and the region layout; a mix's streams, offsetStream wrappers
	// included, are its elements' streams; a trace's streams are Readers,
	// each its own cursor over the immutable File.
	Streams(cores int, seed uint64) []Stream
}

// CoreChecker is an optional Generator interface for generators whose
// streams exist only for particular core counts: recorded traces replay
// exactly the cores they captured, and per-core mixes tile a fixed pattern.
// Callers that know the core count before building streams (config
// validation, scenario expansion, trace capture) consult it via CheckCores
// so an impossible pairing fails with a diagnostic instead of handing cores
// empty or misassigned streams.
type CoreChecker interface {
	// CheckCores reports whether the generator can produce streams for the
	// given core count; the error names the constraint that failed.
	CheckCores(cores int) error
}

// CheckCores validates cores against gen when it implements CoreChecker;
// generators without the interface accept any count.
func CheckCores(gen Generator, cores int) error {
	if c, ok := gen.(CoreChecker); ok {
		return c.CheckCores(cores)
	}
	return nil
}

// SeedInvariant is an optional Generator interface marking generators whose
// streams do not depend on the seed argument (a recorded trace replays
// exactly what was captured, whatever seed it is asked for).  The scenario
// layer collapses the seed axis for benchmarks that declare invariance, so
// a seeds: [1,2,3] sweep does not simulate — and cache under three distinct
// keys — byte-identical replays.
type SeedInvariant interface {
	// SeedInvariant reports that Streams ignores its seed argument.
	SeedInvariant() bool
}

// IsSeedInvariant reports whether gen declares itself seed-invariant.
func IsSeedInvariant(gen Generator) bool {
	si, ok := gen.(SeedInvariant)
	return ok && si.SeedInvariant()
}

// Class tags a benchmark as scientific (Splash-2) or multimedia (ALPBench),
// which the experiment layer uses when summarising Figure 6.
type Class uint8

const (
	// Scientific marks Splash-2-like workloads.
	Scientific Class = iota
	// Multimedia marks ALPBench-like workloads.
	Multimedia
	// Synthetic marks the generic configurable kernel.
	Synthetic
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Scientific:
		return "scientific"
	case Multimedia:
		return "multimedia"
	case Synthetic:
		return "synthetic"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// registry of named benchmarks.
var registry = map[string]func(scale float64) Generator{}

// schemes maps a name prefix ("trace" for "trace:<path>") to a resolver
// building a generator from the rest of the name.  Schemes let packages
// layered above workload (the trace subsystem) plug whole benchmark
// families into ByName without this package importing them.
var schemes = map[string]func(rest string, scale float64) (Generator, error){}

// Register adds a benchmark constructor to the registry; scale multiplies
// the reference count so experiments can trade accuracy for run time.
func Register(name string, ctor func(scale float64) Generator) {
	registry[name] = ctor
}

// RegisterScheme installs a resolver for benchmark names of the form
// "<scheme>:<rest>"; ByName consults schemes before the plain registry, so
// a recorded trace ("trace:fmm.trc") sweeps exactly like a synthetic name.
func RegisterScheme(scheme string, resolve func(rest string, scale float64) (Generator, error)) {
	schemes[scheme] = resolve
}

// ByName returns the named benchmark generator at the given scale.
func ByName(name string, scale float64) (Generator, error) {
	if scheme, rest, ok := strings.Cut(name, ":"); ok {
		if resolve, found := schemes[scheme]; found {
			return resolve(rest, scale)
		}
	}
	ctor, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	return ctor(scale), nil
}

// Registered reports whether name is a registered plain benchmark, without
// building its generator.
func Registered(name string) bool {
	_, ok := registry[name]
	return ok
}

// Names lists the registered benchmarks in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ClassOf returns the class of a registered benchmark name.
func ClassOf(name string) Class {
	switch name {
	case "WATER-NS", "FMM", "VOLREND":
		return Scientific
	case "mpeg2enc", "mpeg2dec", "facerec":
		return Multimedia
	default:
		return Synthetic
	}
}

// PaperBenchmarks returns the six benchmark names used in the paper's
// evaluation, in the order of Figure 6.
func PaperBenchmarks() []string {
	return []string{"mpeg2enc", "mpeg2dec", "facerec", "WATER-NS", "FMM", "VOLREND"}
}

// TotalInstructions sums the instruction counts of a slice of entries.
func TotalInstructions(entries []Entry) uint64 {
	var n uint64
	for _, e := range entries {
		n += e.Instructions()
	}
	return n
}

// Drain consumes a stream completely and returns its entries; intended for
// tests, not for simulation of long workloads.
func Drain(s Stream) []Entry {
	var out []Entry
	buf := make([]Entry, 256)
	for n := s.NextBatch(buf); n > 0; n = s.NextBatch(buf) {
		out = append(out, buf[:n]...)
	}
	return out
}

// regions carves a benchmark's address space into a per-core private region
// and a shared region, mirroring how the generators lay out data.
type regions struct {
	sharedBase  mem.Addr
	sharedBytes uint64
	privBase    []mem.Addr
	privBytes   uint64
	line        uint64
	// offMask is line-1 when line is a power of two (always, for the
	// built-in benchmarks): the per-entry offset draw then masks instead of
	// dividing, consuming the same single RNG draw and producing the same
	// value as Intn (x % 2^k == x & (2^k - 1)).
	offMask uint64
}

// lineOffset draws a random byte offset within a cache line.
func (r regions) lineOffset(rng *sim.Rand) uint64 {
	if r.offMask != 0 {
		return rng.Uint64() & r.offMask
	}
	return uint64(rng.Intn(int(r.line)))
}

// newRegions lays out `cores` private regions of privBytes each, followed by
// one shared region of sharedBytes, all line-aligned and non-overlapping.
func newRegions(cores int, privBytes, sharedBytes, line uint64) regions {
	if line == 0 {
		line = 64
	}
	r := regions{sharedBytes: sharedBytes, privBytes: privBytes, line: line}
	if line&(line-1) == 0 {
		r.offMask = line - 1
	}
	base := mem.Addr(1 << 20) // leave page zero unused
	r.privBase = make([]mem.Addr, cores)
	for i := 0; i < cores; i++ {
		r.privBase[i] = base
		base += mem.Addr(alignUp(privBytes, line))
	}
	r.sharedBase = base
	return r
}

// alignUp rounds v up to a multiple of a.
func alignUp(v, a uint64) uint64 {
	if a == 0 {
		return v
	}
	return (v + a - 1) / a * a
}

// privateAddr returns an address inside core's private region at the given
// block index and offset.
func (r regions) privateAddr(core int, blockIdx uint64, off uint64) mem.Addr {
	nblocks := r.privBytes / r.line
	if nblocks == 0 {
		nblocks = 1
	}
	return r.privBase[core] + mem.Addr((blockIdx%nblocks)*r.line+off%r.line)
}

// sharedAddr returns an address inside the shared region.
func (r regions) sharedAddr(blockIdx uint64, off uint64) mem.Addr {
	nblocks := r.sharedBytes / r.line
	if nblocks == 0 {
		nblocks = 1
	}
	return r.sharedBase + mem.Addr((blockIdx%nblocks)*r.line+off%r.line)
}

// phaseParams drive the generic phase generator used by all benchmarks.
type phaseParams struct {
	// refs is the number of memory references generated in the phase.
	refs int
	// meanCompute is the mean compute-instruction run between references.
	meanCompute float64
	// storeFrac is the probability a reference is a store.
	storeFrac float64
	// sharedFrac is the probability a reference targets the shared region.
	sharedFrac float64
	// sharedStoreFrac is the store probability for shared references
	// (write sharing causes invalidations).
	sharedStoreFrac float64
	// privBlocks / sharedBlocks bound the working set touched this phase.
	privBlocks   uint64
	sharedBlocks uint64
	// privSkew / sharedSkew are Zipf skews modelling temporal locality.
	privSkew   float64
	sharedSkew float64
	// stride, when non-zero, makes private accesses sequential with this
	// block stride (streaming workloads) instead of Zipf-random.
	stride uint64
	// rmwFrac is the probability a store targets a recently loaded block
	// (read-modify-write behaviour).  Real codes rarely store to blocks
	// they have not read; this keeps the L2 write-hit rate high, which is
	// what makes the aggregate L2 miss rate low in the paper (most L2
	// operations are write-through stores that hit).
	rmwFrac float64
	// hotWindowFrac, when non-zero, restricts Zipf-sampled private accesses
	// of each phase instance to a window of this fraction of the private
	// region.  The window moves between iterations (see generatePhase's
	// windowShift), creating the generational behaviour decay exploits:
	// blocks outside the current window are dead until the sweep returns.
	hotWindowFrac float64
	// spatial is the probability that a reference stays in the same cache
	// block as the previous one (word-by-word walks, struct field
	// accesses).  It is the main knob controlling the L1 hit rate, and
	// therefore how rarely the L2 is accessed per instruction.  Zero means
	// the default of defaultSpatial.
	spatial float64
}

// defaultSpatial is used when a phase does not specify spatial locality.
const defaultSpatial = 0.85

// defaultRMWFrac is used when a phase does not specify rmwFrac.
const defaultRMWFrac = 0.75

// recentBlocks is a small ring buffer of recently loaded addresses used to
// model read-modify-write stores.
type recentBlocks struct {
	buf  []mem.Addr
	next int
}

func newRecentBlocks(n int) *recentBlocks { return &recentBlocks{buf: make([]mem.Addr, 0, n)} }

// reset empties the ring without releasing its backing array, so one pair of
// pools can be reused across the phase instances of a stream.
func (rb *recentBlocks) reset() {
	rb.buf = rb.buf[:0]
	rb.next = 0
}

func (rb *recentBlocks) add(a mem.Addr) {
	if cap(rb.buf) == 0 {
		return
	}
	if len(rb.buf) < cap(rb.buf) {
		rb.buf = append(rb.buf, a)
		return
	}
	rb.buf[rb.next] = a
	rb.next = (rb.next + 1) % len(rb.buf)
}

func (rb *recentBlocks) pick(rng *sim.Rand) (mem.Addr, bool) {
	if len(rb.buf) == 0 {
		return 0, false
	}
	return rb.buf[rng.Intn(len(rb.buf))], true
}

// phaseGen is the resumable generator of one phase instance (one phase of
// one iteration on one core).  Suspending between entries is what lets the
// phased benchmarks produce batches natively: generate fills a caller-owned
// slice and the stream picks up exactly where it stopped, so the entry
// sequence is identical for every batch size, including batch size one.
type phaseGen struct {
	// p holds the phase parameters with refs already scaled.
	p    phaseParams
	core int

	// The phase's samplers, precomputed by start: the compute-run length,
	// the five reference chances and the two Zipf block pickers.
	compute                                  sim.Geom
	spatial, store, shared, sharedStore, rmw sim.Chance
	sharedZipf, privZipf                     sim.Zipf

	// emitted counts the entries produced so far of the p.refs total.
	emitted int
	// seq advances the strided (streaming) private walk.
	seq uint64

	windowBase   uint64
	windowBlocks uint64

	lastBlock  mem.Addr
	lastShared bool
	haveLast   bool
}

// start initialises the generator for one phase instance.  windowShift
// selects which hot window of the private region this instance sweeps
// (typically the iteration number).
func (g *phaseGen) start(p phaseParams, core int, windowShift uint64) {
	g.p = p
	g.core = core
	g.emitted = 0
	g.seq = 0
	g.lastBlock = 0
	g.lastShared = false
	g.haveLast = false
	rmwFrac := p.rmwFrac
	if rmwFrac == 0 {
		rmwFrac = defaultRMWFrac
	}
	spatial := p.spatial
	if spatial == 0 {
		spatial = defaultSpatial
	}
	g.compute = sim.NewGeom(p.meanCompute)
	g.spatial = sim.NewChance(spatial)
	g.store = sim.NewChance(p.storeFrac)
	g.shared = sim.NewChance(p.sharedFrac)
	g.sharedStore = sim.NewChance(p.sharedStoreFrac)
	g.rmw = sim.NewChance(rmwFrac)
	privBlocks := maxU64(p.privBlocks, 1)
	g.windowBlocks = privBlocks
	g.windowBase = 0
	if p.hotWindowFrac > 0 && p.hotWindowFrac < 1 {
		g.windowBlocks = maxU64(uint64(float64(privBlocks)*p.hotWindowFrac), 1)
		nWindows := privBlocks / g.windowBlocks
		if nWindows == 0 {
			nWindows = 1
		}
		g.windowBase = (windowShift % nWindows) * g.windowBlocks
	}
	g.sharedZipf = sim.NewZipf(int(maxU64(p.sharedBlocks, 1)), p.sharedSkew)
	g.privZipf = sim.NewZipf(int(g.windowBlocks), p.privSkew)
}

// done reports whether the phase instance has emitted all its references.
func (g *phaseGen) done() bool { return g.emitted >= g.p.refs }

// generate fills out with the phase's next entries and returns how many were
// written; it stops at the end of the buffer or of the phase, whichever
// comes first.  recentPriv and recentShared are the caller's read-modify-
// write candidate pools — separate per region, so shared stores only land
// on shared data and the configured write-sharing fraction is preserved.
func (g *phaseGen) generate(rng *sim.Rand, r regions, recentPriv, recentShared *recentBlocks, out []Entry) int {
	// Hoist the per-entry state into locals for the duration of the batch,
	// restoring the register allocation the one-shot loop had before it
	// became resumable; everything is written back before returning.
	lastBlock, lastShared, haveLast := g.lastBlock, g.lastShared, g.haveLast
	seq, emitted := g.seq, g.emitted
	n := 0
	for n < len(out) && emitted < g.p.refs {
		emitted++
		e := Entry{ComputeInstrs: g.compute.Sample(rng)}
		// Spatial locality: with probability `spatial` the reference stays
		// in the previous block (new offset), which keeps most accesses in
		// the L1 and makes L2 touches rare, as in the real benchmarks.  The
		// store probability follows the region of the reused block so the
		// configured write-sharing mix is preserved.
		if haveLast && rng.Hit(g.spatial) {
			storeP := g.store
			if lastShared {
				storeP = g.sharedStore
			}
			if rng.Hit(storeP) {
				e.Op = Store
			} else {
				e.Op = Load
			}
			e.Addr = lastBlock + mem.Addr(r.lineOffset(rng))
			out[n] = e
			n++
			continue
		}
		shared := rng.Hit(g.shared)
		var isStore bool
		if shared {
			isStore = rng.Hit(g.sharedStore)
			if isStore && rng.Hit(g.rmw) {
				if a, ok := recentShared.pick(rng); ok {
					e.Addr = a
					e.Op = Store
					lastBlock, lastShared, haveLast = mem.BlockAddr(a, r.line), true, true
					out[n] = e
					n++
					continue
				}
			}
			blk := uint64(g.sharedZipf.Sample(rng))
			e.Addr = r.sharedAddr(blk, r.lineOffset(rng))
		} else {
			isStore = rng.Hit(g.store)
			if isStore && rng.Hit(g.rmw) {
				if a, ok := recentPriv.pick(rng); ok {
					e.Addr = a
					e.Op = Store
					lastBlock, lastShared, haveLast = mem.BlockAddr(a, r.line), false, true
					out[n] = e
					n++
					continue
				}
			}
			var blk uint64
			if g.p.stride > 0 {
				blk = g.windowBase + (seq*g.p.stride)%g.windowBlocks
				seq++
			} else {
				blk = g.windowBase + uint64(g.privZipf.Sample(rng))
			}
			e.Addr = r.privateAddr(g.core, blk, r.lineOffset(rng))
		}
		if isStore {
			e.Op = Store
		} else {
			e.Op = Load
			if shared {
				recentShared.add(e.Addr)
			} else {
				recentPriv.add(e.Addr)
			}
		}
		lastBlock = mem.BlockAddr(e.Addr, r.line)
		lastShared = shared
		haveLast = true
		out[n] = e
		n++
	}
	g.lastBlock, g.lastShared, g.haveLast = lastBlock, lastShared, haveLast
	g.seq, g.emitted = seq, emitted
	return n
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
