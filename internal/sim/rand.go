package sim

import "math"

// Rand is a small, fast, deterministic pseudo-random generator
// (splitmix64 seeding + xorshift128+ core).  The standard library's
// math/rand is deliberately avoided so that workload generation stays
// reproducible across Go versions and so each component can own an
// independent stream seeded from the experiment seed.
type Rand struct {
	s0, s1 uint64
}

// splitmix64 expands a seed into well-distributed state words.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRand returns a generator seeded from seed.  Two generators with the
// same seed produce identical sequences.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from seed.
func (r *Rand) Seed(seed uint64) {
	x := seed
	r.s0 = splitmix64(&x)
	r.s1 = splitmix64(&x)
	if r.s0 == 0 && r.s1 == 0 {
		r.s1 = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	var out uint64
	r.s0, r.s1, out = step(r.s0, r.s1)
	return out
}

// step is one xorshift128+ step: it returns the successor of state
// (s0, s1) and the draw it yields.  Uint64 and Geom.Sample both advance
// through it, the latter with the state held in locals across its loop.
func step(s0, s1 uint64) (n0, n1, out uint64) {
	x := s0 ^ s0<<23
	n1 = x ^ s1 ^ (x >> 17) ^ (s1 >> 26)
	return s1, n1, n1 + s1
}

// Intn returns a value in [0, n).  It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Chance is a probability precomputed as a threshold on the 53 bits a
// Float64 draw uses: Hit(NewChance(p)) is exactly Float64() < p on the same
// draw, without the float conversion.
type Chance uint64

// NewChance returns the chance of probability p.  Float64() < p holds for
// the draw m = Uint64()>>11 exactly when m/2^53 < p, that is when
// m < ceil(p*2^53): scaling by a power of two is exact, so the threshold is
// too.  p <= 0 and NaN never hit; p >= 1 always does.
func NewChance(p float64) Chance {
	if !(p > 0) {
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	return Chance(math.Ceil(p * (1 << 53)))
}

// Hit draws once and reports whether the draw falls under c.
func (r *Rand) Hit(c Chance) bool { return r.Uint64()>>11 < uint64(c) }

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Hit(NewChance(p)) }

// Geom is a geometric sampler precomputed from its mean: Sample(r) returns
// what Geometric(mean) returns and makes the same draws.
type Geom struct {
	c     Chance
	limit int
	draws bool // false when mean <= 1: the sample is 1 and nothing is drawn
}

// NewGeom returns the sampler of Geometric(mean).
func NewGeom(mean float64) Geom {
	if mean <= 1 {
		return Geom{}
	}
	return Geom{c: NewChance(1 / mean), limit: int(mean * 16), draws: true}
}

// Sample counts draws up to and including the first hit, capped at the
// limit of 16 means; the draw that meets the cap is still made.
func (g Geom) Sample(r *Rand) int {
	if !g.draws {
		return 1
	}
	s0, s1 := r.s0, r.s1
	n := 1
	for {
		var x uint64
		s0, s1, x = step(s0, s1)
		if x>>11 < uint64(g.c) || n >= g.limit {
			break
		}
		n++
	}
	r.s0, r.s1 = s0, s1
	return n
}

// Geometric returns a sample from a geometric distribution with mean
// approximately mean (minimum 1).  It is used to draw run lengths such as
// the number of compute instructions between memory references.
func (r *Rand) Geometric(mean float64) int { return NewGeom(mean).Sample(r) }

// Zipf is a Zipf-like sampler over [0, n) with skew s, its power-law
// constants computed once instead of on every draw.  s=0 is uniform and a
// larger s concentrates mass on low indices; it samples by inverse-power
// transform, which is accurate enough for locality modelling.
type Zipf struct {
	n int
	s float64
	// a and b shape the inverse transform: for s == 1, v = e^(u*a) with
	// a = ln(n+1); otherwise v = (u*(a-1)+1)^b with a = (n+1)^(1-s) and
	// b = 1/(1-s).
	a, b float64
}

// NewZipf returns the sampler of Zipf(n, s).
func NewZipf(n int, s float64) Zipf {
	z := Zipf{n: n, s: s}
	switch {
	case n <= 1 || s <= 0:
	case s == 1:
		z.a = math.Log(float64(n) + 1)
	default:
		oneMinus := 1 - s
		z.a = powf(float64(n)+1, oneMinus)
		z.b = 1 / oneMinus
	}
	return z
}

// Sample draws one index.
func (z Zipf) Sample(r *Rand) int {
	if z.n <= 1 {
		return 0
	}
	if z.s <= 0 {
		return r.Intn(z.n)
	}
	u := r.Float64()
	// Inverse transform of a truncated power-law density x^(-s) on [1, n+1).
	var v float64
	if z.s == 1 {
		// The harmonic density, special-cased to avoid division by zero:
		// (n+1)^u, with n+1 > 0.
		v = math.Exp(u * z.a)
	} else {
		v = powf(u*(z.a-1)+1, z.b)
	}
	idx := int(v) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= z.n {
		idx = z.n - 1
	}
	return idx
}

// powf is a^b for positive a; zero or negative a yields zero, which is the
// safe value for the truncated power-law sampler above.
func powf(a, b float64) float64 {
	if a <= 0 {
		return 0
	}
	return math.Exp(b * math.Log(a))
}
