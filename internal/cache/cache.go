// Package cache implements the storage substrate of the L1 and L2 models:
// a set-associative tag store with true-LRU replacement (Tags), the L2 bank
// that adds per-line coherence, power (Gated-Vdd) and decay state to it
// (Cache), miss-status holding registers (MSHR) with request merging, and a
// coalescing write buffer.
//
// A write-through L1 needs only tags, validity and recency, so it holds a
// Tags.  Only the L2 lines carry leakage state, as in the paper, so only a
// Cache holds a line array, the powered-cycle aggregate and the decay
// bookkeeping.  Cache embeds Tags; its Install and Invalidate also disarm
// the line.
//
// The package is deliberately policy-free: coherence states are stored as an
// opaque uint8 owned by the coherence layer, and the decision of when to
// power a line on or off belongs to the leakage techniques in
// internal/decay.  What lives here is the mechanics: tag lookup, victim
// selection, LRU maintenance, and exact integration of powered-on cycles so
// the occupation-rate metric of the paper (Figure 3a) can be computed.
//
// Every per-line array is flat and indexed by set*assoc+way (sets are a
// power of two, so the set index is a shift and mask of the address): no
// per-set slice headers, no pointer chasing on the access path, and the
// decay bookkeeping keys its bitmaps by plain integer indices.
package cache

import (
	"fmt"
	"math/bits"

	"cmpleak/internal/mem"
	"cmpleak/internal/sim"
)

// Config describes one cache array.
type Config struct {
	// Name is used in statistics and error messages ("L1D-0", "L2-2", ...).
	Name string
	// SizeBytes is the total data capacity.
	SizeBytes uint64
	// LineBytes is the block size; must be a power of two, at least 2.
	LineBytes uint64
	// Assoc is the set associativity, at most 16.
	Assoc int
	// LatencyCycles is the access (hit) latency.
	LatencyCycles sim.Cycle
	// ExtraLatency is added on top of LatencyCycles; the paper charges one
	// extra cycle for caches that embed decay circuitry.
	ExtraLatency sim.Cycle
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.SizeBytes == 0 || c.LineBytes == 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache %q: size, line size and associativity must be positive", c.Name)
	}
	if !mem.IsPowerOfTwo(c.LineBytes) {
		return fmt.Errorf("cache %q: line size %d is not a power of two", c.Name, c.LineBytes)
	}
	if c.LineBytes < 2 {
		return fmt.Errorf("cache %q: line size %d is below 2 bytes", c.Name, c.LineBytes)
	}
	if c.Assoc > maxAssoc {
		return fmt.Errorf("cache %q: associativity %d exceeds %d", c.Name, c.Assoc, maxAssoc)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines == 0 || lines%uint64(c.Assoc) != 0 {
		return fmt.Errorf("cache %q: %d lines not divisible by associativity %d", c.Name, lines, c.Assoc)
	}
	sets := lines / uint64(c.Assoc)
	if !mem.IsPowerOfTwo(sets) {
		return fmt.Errorf("cache %q: %d sets is not a power of two", c.Name, sets)
	}
	return nil
}

// NumLines returns the total number of lines.
func (c Config) NumLines() int { return int(c.SizeBytes / c.LineBytes) }

// NumSets returns the number of sets.
func (c Config) NumSets() int { return c.NumLines() / c.Assoc }

// Latency returns the total hit latency including any decay penalty.
func (c Config) Latency() sim.Cycle { return c.LatencyCycles + c.ExtraLatency }

// Line is one L2 block's metadata.  Data values are not simulated; only
// the state needed for timing, coherence and energy is kept.  Whether the
// line holds a block is its set's valid mask (see Tags.Valid), the block
// address lives in the dense tag array (see Tags.Tag) and the
// decay arm tick in a per-bank array only decaying banks allocate, so each
// field is stored once.  Whether a line is dirty is its coherence State's
// (coherence.State.Dirty).
type Line struct {
	// State is the coherence state, owned by the coherence layer.
	State uint8
	// Powered reports whether the SRAM cells of this line are connected to
	// the supply rail (Gated-Vdd on = powered).
	Powered bool
	// DecayArmed reports whether the decay logic is allowed to turn this
	// line off (always true for plain Decay, selectively set for SD).  Only
	// a valid line is armed: Install and Invalidate disarm.
	DecayArmed bool
}

// Tags is a set-associative tag store: the geometry, the dense tag array,
// the per-set valid masks and the packed LRU.  It is all an L1 needs; an L2
// bank is a Cache, which adds line state, power and decay to a Tags.
type Tags struct {
	cfg   Config
	assoc int
	// lineShift and setMask turn an address into a set index with one shift
	// and one mask (LineBytes and the set count are powers of two).
	lineShift uint
	setMask   uint64

	// tags holds each way's block address, indexed by set*assoc+way: the
	// one copy of the tag, scanned by Lookup one 8-byte word per way (an
	// 8-way set is one host cache line).  Invalid ways hold invalidTag —
	// not block-aligned, so it can never match a looked-up block — which
	// mirrors validBits into the tag compare and keeps the hit path to a
	// single replacement-state load.
	tags []mem.Addr

	// validBits is the one record of validity: bit w of a set's word is
	// set while way w holds a block.  Victim finds the lowest-indexed
	// invalid way with one mask and a trailing-zero count.
	validBits []uint64
	fullMask  uint64 // low assoc bits set

	// Replacement state.  Instead of an 8-byte LRU stamp per line and an
	// unbounded global stamp counter, each set keeps its ways as an explicit
	// recency permutation packed into one uint64 of 4-bit ranks: nibble r
	// holds the way at rank r, rank 0 the MRU way and rank assoc-1 the LRU
	// way (maxAssoc ways fit).  Touch is a constant shift/mask rotation and
	// the LRU way is the top occupied nibble, with no per-way scan.  The
	// permutation order reproduces stamp order exactly: every Touch promotes
	// to MRU, everything else keeps its relative order, so victim choice is
	// unchanged from the stamp scheme.
	lruOrder []uint64
}

// Cache is an L2 bank: a Tags plus each line's coherence, power and decay
// state, indexed like the tags.
type Cache struct {
	Tags

	// lines is a flat array indexed by set*assoc+way.
	lines []Line

	// Powered-cycle integration is kept as an aggregate updated at every
	// power transition: onCycles is exact up to lastPowerAdv, and
	// poweredLines lines have been on since then.  This makes OnCycles O(1)
	// instead of a walk over the array (it is called from the thermal
	// sampler every 10k cycles, on 8 MB banks in the largest sweeps).
	onCycles     uint64
	poweredLines int
	lastPowerAdv sim.Cycle

	// Decay bookkeeping, sized by EnableDecay on banks a decaying
	// technique runs on (empty elsewhere).  Line counters are not stored but
	// derived from decayTicks and armTick[idx], the bank's tick count at the
	// line's last counter reset.  Bitmaps over line indices track the only
	// lines a tick can saturate: decayDue[k] holds the armed lines reset
	// while decayTicks%DecayLevels == k, which saturate DecayLevels ticks
	// later unless reset again; decaySat holds saturated lines that survived
	// their turn-off request (deferred, or writing back), which every tick
	// requests again.  decayList is the list DecayTick returns, its array
	// reused by every tick and kept by Init.
	decayTicks uint32
	armTick    []uint32
	decayDue   [DecayLevels][]uint64
	decaySat   []uint64
	decayList  []int
}

// New builds a cache; the configuration must validate.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := new(Cache)
	c.Init(cfg)
	return c, nil
}

// Init makes t an empty tag store of cfg, which must validate, in place.
// The tag, valid-mask and replacement arrays keep their backing storage
// when it is large enough, so a simulator rebuilt for the next job
// allocates nothing for its caches.
func (t *Tags) Init(cfg Config) {
	n, sets := cfg.NumLines(), cfg.NumSets()
	*t = Tags{
		cfg:       cfg,
		assoc:     cfg.Assoc,
		lineShift: uint(bits.TrailingZeros64(cfg.LineBytes)),
		setMask:   uint64(sets - 1),
		tags:      resized(t.tags, n),
		validBits: zeroed(t.validBits, sets),
		fullMask:  ^uint64(0) >> (64 - uint(cfg.Assoc)),
		lruOrder:  resized(t.lruOrder, sets),
	}
	for i := range t.tags {
		t.tags[i] = invalidTag
	}
	// Identity permutation; unused high nibbles hold 0xF so a stray match
	// can never shadow a real way (Touch takes the lowest match, and real
	// ways always sit below the unused region).
	var init uint64
	for r := 0; r < maxAssoc; r++ {
		v := uint64(0xF)
		if r < t.assoc {
			v = uint64(r)
		}
		init |= v << (4 * r)
	}
	for s := range t.lruOrder {
		t.lruOrder[s] = init
	}
}

// Init makes c an empty cache of cfg, which must validate, in place, as New
// would build it, with decay disabled.  Its tag store (Tags.Init), line
// array, and EnableDecay's arm ticks and bitmaps keep their backing storage
// when it is large enough.
func (c *Cache) Init(cfg Config) {
	c.Tags.Init(cfg)
	old := *c
	*c = Cache{
		Tags:  old.Tags,
		lines: zeroed(old.lines, cfg.NumLines()),
		// Decay stays off until EnableDecay, which reuses these arrays.
		armTick:   old.armTick[:0],
		decaySat:  old.decaySat[:0],
		decayList: old.decayList[:0],
	}
	for k := range c.decayDue {
		c.decayDue[k] = old.decayDue[k][:0]
	}
}

// resized returns s resliced to n elements when its capacity allows, else
// a new slice of n; the caller sets every element.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// zeroed returns s resliced to n zero elements when its capacity allows,
// else a new slice of n.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// MustNew is New but panics on configuration errors; used by tests and
// presets that are known valid.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache configuration.
func (t *Tags) Config() Config { return t.cfg }

// Assoc returns the associativity (the way stride of the flat arrays).
func (t *Tags) Assoc() int { return t.assoc }

// NumLines returns the total number of lines.
func (t *Tags) NumLines() int { return len(t.tags) }

// SetIndex returns the set index for an address.
func (t *Tags) SetIndex(a mem.Addr) int {
	return int((uint64(a) >> t.lineShift) & t.setMask)
}

// Lookup finds the way holding the block containing a.  It returns the set
// index, the way, and whether the block is present (valid).  Lookup does not
// update LRU state or statistics; callers decide whether the access counts
// as a hit (a powered-off line is not a hit even if the tag matches).
func (t *Tags) Lookup(a mem.Addr) (set, way int, found bool) {
	set = t.SetIndex(a)
	tag := mem.BlockAddr(a, t.cfg.LineBytes)
	base := set * t.assoc
	for w, x := range t.tags[base : base+t.assoc] {
		if x == tag {
			return set, w, true
		}
	}
	return set, -1, false
}

// Line returns a pointer to the line at (set, way).
func (c *Cache) Line(set, way int) *Line { return &c.lines[set*c.assoc+way] }

// Valid reports whether (set, way) holds a block.
func (t *Tags) Valid(set, way int) bool { return t.validBits[set]>>uint(way)&1 != 0 }

// Tag returns the block address held at (set, way); it is meaningful only
// while the line is valid.
func (t *Tags) Tag(set, way int) mem.Addr { return t.tags[set*t.assoc+way] }

// maxAssoc is the widest associativity a cache accepts: its recency
// permutation fits one uint64 of 4-bit ranks.
const maxAssoc = 16

// invalidTag marks an empty way in the dense tag array.  Block addresses
// are LineBytes-aligned and Validate requires LineBytes >= 2, so no real
// block can equal it.
const invalidTag mem.Addr = 1

// Nibble-SWAR constants: repeated 0x1 / 0x8 patterns used to locate the
// nibble holding a given way inside a packed permutation word.
const (
	nibLSB = 0x1111111111111111
	nibMSB = 0x8888888888888888
)

// Touch marks (set, way) as most recently used: it rotates way to rank 0
// (MRU) of its set's recency permutation, preserving the relative order of
// every other way.
func (t *Tags) Touch(set, way int) {
	order := t.lruOrder[set]
	w := uint64(way)
	if order&0xF == w {
		return // already MRU
	}
	// Locate the nibble holding w: XOR makes it the lowest zero nibble, the
	// classic (x-1)&^x&0x8 trick raises bit 4p+3 at its position.
	x := order ^ (w * nibLSB)
	p4 := uint(bits.TrailingZeros64((x-nibLSB) & ^x & nibMSB)) &^ 3
	low := order & (uint64(1)<<p4 - 1)       // ranks below w's
	high := order &^ (uint64(1)<<(p4+4) - 1) // ranks above w's
	t.lruOrder[set] = high | low<<4 | w
}

// Victim returns the way to replace in set: the lowest-indexed invalid way
// if one exists, otherwise the least recently used way.  Both answers are
// O(1): a trailing-zero count over the inverted valid mask, or the top
// occupied nibble of the permutation.
func (t *Tags) Victim(set int) int {
	if free := ^t.validBits[set] & t.fullMask; free != 0 {
		return bits.TrailingZeros64(free)
	}
	return int(t.lruOrder[set] >> (uint(t.assoc-1) * 4) & 0xF)
}

// Install places the block containing a into (set, way), marking it valid
// and most recently used.  The previous occupant must already have been
// handled (written back / invalidated) by the caller.
func (t *Tags) Install(a mem.Addr, set, way int) {
	t.tags[set*t.assoc+way] = mem.BlockAddr(a, t.cfg.LineBytes)
	t.validBits[set] |= 1 << uint(way)
	t.Touch(set, way)
}

// Invalidate clears the valid bit of (set, way).
func (t *Tags) Invalidate(set, way int) {
	t.tags[set*t.assoc+way] = invalidTag
	t.validBits[set] &^= 1 << uint(way)
}

// Install is Tags.Install that also disarms the line: a new block starts
// unarmed.
func (c *Cache) Install(a mem.Addr, set, way int) {
	c.Tags.Install(a, set, way)
	c.lines[set*c.assoc+way].DecayArmed = false
}

// Invalidate is Tags.Invalidate that also disarms the line.  Power state is
// untouched; the leakage technique decides whether invalidation implies
// gating.
func (c *Cache) Invalidate(set, way int) {
	c.lines[set*c.assoc+way].DecayArmed = false
	c.Tags.Invalidate(set, way)
}

// advancePower brings the powered-cycle aggregate up to cycle now.  Called
// before every power transition so the (poweredLines × elapsed) term is
// integrated piecewise-exactly.
func (c *Cache) advancePower(now sim.Cycle) {
	if now > c.lastPowerAdv {
		c.onCycles += uint64(c.poweredLines) * uint64(now-c.lastPowerAdv)
		c.lastPowerAdv = now
	}
}

// PowerOn connects (set, way) to the supply rail at cycle now.
func (c *Cache) PowerOn(set, way int, now sim.Cycle) {
	ln := &c.lines[set*c.assoc+way]
	if ln.Powered {
		return
	}
	c.advancePower(now)
	ln.Powered = true
	c.poweredLines++
}

// PowerOff gates (set, way) at cycle now.
func (c *Cache) PowerOff(set, way int, now sim.Cycle) {
	ln := &c.lines[set*c.assoc+way]
	if !ln.Powered {
		return
	}
	c.advancePower(now)
	ln.Powered = false
	c.poweredLines--
}

// PowerOnAll powers every line; used by the always-on baseline.
func (c *Cache) PowerOnAll(now sim.Cycle) {
	c.advancePower(now)
	for i := range c.lines {
		if !c.lines[i].Powered {
			c.lines[i].Powered = true
			c.poweredLines++
		}
	}
}

// DecayLevels is the saturation value of the per-line hierarchical decay
// counter.  The paper follows Kaxiras et al.: a small (2-bit) counter per
// line incremented by a cache-wide global tick, so that a line is turned off
// after between (levels-1) and levels global ticks without an access.
const DecayLevels = 4

// EnableDecay allocates the bank's decay bookkeeping — one arm tick per
// line and the due and saturated bitmaps — which ResetDecay, DecayCounter,
// DecayTick and KeepSaturated use; a decaying technique calls it once when
// it starts.  Banks that never decay carry none of it.  A bank rebuilt by
// Init reuses the arrays an earlier EnableDecay allocated.
func (c *Cache) EnableDecay() {
	c.armTick = zeroed(c.armTick, len(c.lines))
	words := (len(c.lines) + 63) / 64
	for k := range c.decayDue {
		c.decayDue[k] = zeroed(c.decayDue[k], words)
	}
	c.decaySat = zeroed(c.decaySat, words)
}

// ResetDecay resets the decay counter of (set, way) to zero by recording
// the bank's tick count as the line's arm tick.  An armed line becomes due
// DecayLevels ticks from now; a line that had saturated leaves the
// saturated set either way.  Set DecayArmed before calling it.
func (c *Cache) ResetDecay(set, way int) {
	idx := set*c.assoc + way
	c.armTick[idx] = c.decayTicks
	w, bit := idx>>6, uint64(1)<<(uint(idx)&63)
	c.decaySat[w] &^= bit
	if c.lines[idx].DecayArmed {
		c.decayDue[c.decayTicks%DecayLevels][w] |= bit
	}
}

// DecayCounter returns the hierarchical decay counter of (set, way): the
// ticks since its arm tick, saturating at DecayLevels.
func (c *Cache) DecayCounter(set, way int) int {
	return int(min(c.decayTicks-c.armTick[set*c.assoc+way], DecayLevels))
}

// DecayTick advances the bank's global decay tick and returns, in index
// order, every powered, armed (so valid) line whose counter is saturated
// after it and that was due this tick or is in the saturated set.  The list
// lives in the bank: the caller may reorder or filter it in place, and it
// is valid until the next DecayTick.  Both sets are cleared as they are
// read: the caller returns the lines its turn-off requests leave in place
// with KeepSaturated.  A due bit left behind by an earlier reset of a line
// reset again since is stale and skipped; entries of the saturated set are
// taken without reading their arm tick, so saturation never depends on
// 32-bit wrap-around.
func (c *Cache) DecayTick() []int {
	dst := c.decayList[:0]
	c.decayTicks++
	t := c.decayTicks
	due := c.decayDue[t%DecayLevels]
	for w, d := range due {
		sat := c.decaySat[w]
		cand := d | sat
		if cand == 0 {
			continue
		}
		due[w], c.decaySat[w] = 0, 0
		for ; cand != 0; cand &= cand - 1 {
			b := bits.TrailingZeros64(cand)
			idx := w<<6 | b
			if ln := &c.lines[idx]; !ln.Powered || !ln.DecayArmed {
				continue
			}
			if sat&(1<<uint(b)) == 0 && t-c.armTick[idx] < DecayLevels {
				continue
			}
			dst = append(dst, idx)
		}
	}
	c.decayList = dst
	return dst
}

// KeepSaturated returns the line at idx to the saturated set if it is still
// powered and armed (so valid), so the next tick requests its turn-off
// again.
func (c *Cache) KeepSaturated(idx int) {
	if ln := &c.lines[idx]; ln.Powered && ln.DecayArmed {
		c.decaySat[idx>>6] |= 1 << (uint(idx) & 63)
	}
}

// PoweredLines returns the number of lines currently powered on.
func (c *Cache) PoweredLines() int { return c.poweredLines }

// OnCycles returns the integral of powered line-cycles up to cycle now,
// including lines that are still powered.  O(1): the aggregate is advanced
// incrementally at each power transition.
func (c *Cache) OnCycles(now sim.Cycle) uint64 {
	total := c.onCycles
	if now > c.lastPowerAdv {
		total += uint64(c.poweredLines) * uint64(now-c.lastPowerAdv)
	}
	return total
}
